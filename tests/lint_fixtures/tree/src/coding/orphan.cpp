#include "coding/orphan.hpp"

int orphan_value() { return 7; }
