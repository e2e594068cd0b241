// Self-tests of the benchmark's own arithmetic: percentile choice, span
// self-time subtraction and generator determinism. Returns a process exit
// code (0 when every check passes).

#ifndef PERFBENCH_SELFTEST_H_
#define PERFBENCH_SELFTEST_H_

namespace perfbench {

int RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_SELFTEST_H_
