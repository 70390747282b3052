#pragma once
// Fixture: no application file reaches this header, so it and its .cpp are
// orphans.

int orphan_value();
