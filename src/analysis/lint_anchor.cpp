// bloom87: static-analysis anchor translation unit.
//
// The registers library is header-only, so nothing would hand its headers
// to clang-tidy or the compiler's -Wall/-Wextra/-Werror pass on their own
// terms. This TU includes and instantiates every register header once;
// building the analysis library therefore type-checks, warning-checks, and
// (via compile_commands.json) clang-tidy-checks all of src/registers/ and
// src/util/ -- the scope the CI lint job audits.
#include <cstdint>

#include "registers/concepts.hpp"
#include "registers/faulty.hpp"
#include "registers/fourslot.hpp"
#include "registers/instrumented.hpp"
#include "registers/packed_atomic.hpp"
#include "registers/plain.hpp"
#include "registers/recording.hpp"
#include "registers/seqlock.hpp"
#include "registers/swmr_from_swsr.hpp"
#include "registers/tagged.hpp"
#include "registers/va_register.hpp"
#include "util/bits.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"
#include "util/sync.hpp"
#include "util/table.hpp"

// Explicit instantiations force full template checking of the header-only
// registers (template member functions excepted; the test suite covers
// those through use).
template class bloom87::plain_register<std::int64_t>;
template class bloom87::seqlock_register<std::int64_t>;
template class bloom87::four_slot_register<std::int64_t>;
template class bloom87::packed_atomic_register<std::int32_t>;
template class bloom87::instrumented_register<
    bloom87::plain_register<bloom87::tagged<std::int64_t>>>;
