/* CLOCK_MONOTONIC reads for Clock.now: unaffected by wall-clock steps. */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double moldable_clock_now_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value moldable_clock_now(value unit)
{
  return caml_copy_double(moldable_clock_now_unboxed(unit));
}
