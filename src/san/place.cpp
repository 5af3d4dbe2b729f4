#include "san/place.hpp"

// Header-only templates; this TU anchors the vtable of PlaceBase
// instantiations used across the library.
namespace vcpusim::san {

namespace {
[[maybe_unused]] const TokenPlace anchor{"_anchor", 0};
}
}  // namespace vcpusim::san
