// Pack/unpack between a datatype-described memory layout and a contiguous
// byte stream (the data-exchange representation of two-phase I/O).
#pragma once

#include <cstddef>
#include <cstdint>

#include "dtype/datatype.hpp"

namespace parcoll::dtype {

/// True when `count` instances of `type` form one contiguous run starting
/// at displacement 0, so the memory already is its packed stream (ROMIO's
/// buftype_is_contig): callers can use it in place of pack/unpack.
[[nodiscard]] bool is_contiguous_run(const Datatype& type, std::uint64_t count);

/// Gather `count` instances of `type` from `base` into `out` (which must
/// hold count * type.size() bytes). Displacements are relative to `base`;
/// negative displacements are not supported.
void pack(const void* base, const Datatype& type, std::uint64_t count,
          std::byte* out);

/// Scatter the stream `in` back into `count` instances of `type` at `base`.
void unpack(const std::byte* in, const Datatype& type, std::uint64_t count,
            void* base);

}  // namespace parcoll::dtype
