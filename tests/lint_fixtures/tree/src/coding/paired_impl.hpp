#pragma once
// Fixture: only paired.cpp includes this header. It is not an orphan: a
// header brings in its .cpp, and the .cpp's includes with it.

inline int paired_impl_value() { return 3; }
