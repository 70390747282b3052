#include "coding/paired.hpp"

#include "coding/paired_impl.hpp"

int paired_value() { return paired_impl_value(); }
