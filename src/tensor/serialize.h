// Binary parameter serialization.
//
// Format (little-endian):
//   magic "RBTW", u32 version (2), u32 param_count, then per parameter:
//   u32 name_len, name bytes, u32 rank, u32 dims..., f32 data...;
//   then a u64 FNV-1a checksum over everything after the version field.
// Loading matches parameters by name and requires identical shapes, so a
// checkpoint written by one model configuration cannot be silently loaded
// into another.
#pragma once

#include <string>
#include <vector>

#include "tensor/layers.h"

namespace rebert::tensor {

void save_parameters(const std::vector<Parameter*>& params,
                     const std::string& path);

/// Loads values into the given parameters (matched by name). Throws
/// util::CheckError on missing names, shape mismatches, or corrupt files.
void load_parameters(const std::vector<Parameter*>& params,
                     const std::string& path);

}  // namespace rebert::tensor
