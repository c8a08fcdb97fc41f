/* CPU sampling profiler for hosts without `perf`: an LD_PRELOAD library that
 * arms ITIMER_PROF and records (thread id, instruction pointer) in a
 * preallocated array from the SIGPROF handler, then dumps the samples and
 * /proc/self/maps when the process exits. x86-64 Linux only. See README.md. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 20)

static struct {
    int tid;
    unsigned long ip;
} samples[MAX_SAMPLES];
static unsigned long taken; /* may pass MAX_SAMPLES; the excess is dropped */

/* Async-signal-safe: one atomic add, one raw syscall, two stores. */
static void on_sigprof(int sig, siginfo_t *info, void *ctx)
{
    (void)sig;
    (void)info;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES) {
        samples[i].tid = (int)syscall(SYS_gettid);
        samples[i].ip = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
    }
}

static void set_timer(long usec)
{
    struct itimerval it = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((constructor)) static void sampler_start(void)
{
    struct sigaction sa = {0};
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    const char *us = getenv("SAMPLER_US");
    set_timer(us ? atol(us) : 4000);
}

__attribute__((destructor)) static void sampler_dump(void)
{
    set_timer(0);
    const char *path = getenv("SAMPLER_OUT");
    FILE *out = fopen(path ? path : "sampler.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++)
        fprintf(out, "S %d %lx\n", samples[i].tid, samples[i].ip);
    fprintf(out, "D %lu\n", taken - n);
    fclose(maps);
    fclose(out);
}
