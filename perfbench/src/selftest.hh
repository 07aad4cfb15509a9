#ifndef PERFBENCH_SELFTEST_HH
#define PERFBENCH_SELFTEST_HH

#include <ostream>

namespace perfbench
{

/** Check the benchmark's own arithmetic; reports failures to @p os. */
bool selfTest(std::ostream &os);

} // namespace perfbench

#endif // PERFBENCH_SELFTEST_HH
