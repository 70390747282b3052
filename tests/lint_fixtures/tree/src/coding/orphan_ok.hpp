// ncast:allow(layering.orphan_file): fixture demonstrates suppression
#pragma once

inline int unused_value() { return 0; }
