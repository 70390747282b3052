#pragma once
// Fixture: examples/ reaches this header, which brings in paired.cpp and,
// through it, paired_impl.hpp.

int paired_value();
