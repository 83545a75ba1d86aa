/* Per-thread and per-process CPU clocks for the benchmark's timings. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

static value seconds_of(clockid_t id)
{
  struct timespec ts;
  clock_gettime(id, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}

value perfbench_thread_cpu(value unit)
{
  (void)unit;
  return seconds_of(CLOCK_THREAD_CPUTIME_ID);
}

value perfbench_process_cpu(value unit)
{
  (void)unit;
  return seconds_of(CLOCK_PROCESS_CPUTIME_ID);
}
