/* Monotonic nanosecond clock and the kernel's clock-tick rate: the two
   time sources the benchmark needs that OCaml's Unix library lacks. */
#define _GNU_SOURCE /* SCHED_IDLE */
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>
#include <caml/mlvalues.h>

value kbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

value kbench_clk_tck(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_CLK_TCK));
}

/* Spin at SCHED_IDLE priority until killed -- or until the parent dies --
   with the CPU's spin-wait hint so a busy sibling hardware thread loses as
   little as possible.  Returns false at once if the priority cannot be
   lowered. */

value kbench_idle_spin(value unit)
{
  struct sched_param p = { .sched_priority = 0 };
  (void)unit;
  if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() == 1) return Val_false;
  if (sched_setscheduler(0, SCHED_IDLE, &p) != 0) return Val_false;
  for (;;) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    __asm__ volatile("yield");
#endif
  }
  return Val_true;
}
