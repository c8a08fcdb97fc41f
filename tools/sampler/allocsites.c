/* Allocation-site sampler for hosts without `perf` or heaptrack: an
 * LD_PRELOAD library that wraps malloc, calloc and realloc, records the call
 * stack (backtrace(3)) of one in every EVERY allocations of at least
 * MIN_SIZE bytes in a preallocated array, and dumps the stacks and
 * /proc/self/maps to ALLOCSITES_OUT (default allocsites.out) when the
 * process exits. `report.py --allocs` symbolises and groups the dump.
 * glibc only. See README.md. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <stdio.h>
#include <stdlib.h>

#define MAX_SAMPLES (1u << 16)
#define DEPTH 32
#define EVERY 16
#define MIN_SIZE 1024

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);

static struct {
    unsigned long size;
    int depth;
    void *ips[DEPTH];
} samples[MAX_SAMPLES];
static unsigned long taken;       /* may pass MAX_SAMPLES; the excess is dropped */
static unsigned long seen, seen_bytes; /* every allocation of at least MIN_SIZE */
static int ready;                 /* set once the constructor has run */
static __thread int inside;       /* backtrace() may allocate: no recursion */

static void record(size_t size)
{
    if (!ready || inside || size < MIN_SIZE)
        return;
    __atomic_fetch_add(&seen_bytes, size, __ATOMIC_RELAXED);
    if (__atomic_fetch_add(&seen, 1, __ATOMIC_RELAXED) % EVERY)
        return;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES)
        return;
    inside = 1;
    samples[i].size = size;
    samples[i].depth = backtrace(samples[i].ips, DEPTH);
    inside = 0;
}

void *malloc(size_t size)
{
    record(size);
    return __libc_malloc(size);
}

void *calloc(size_t n, size_t size)
{
    record(n * size);
    return __libc_calloc(n, size);
}

void *realloc(void *p, size_t size)
{
    record(size);
    return __libc_realloc(p, size);
}

__attribute__((constructor)) static void allocsites_start(void)
{
    /* The first backtrace() loads the unwinder, which allocates. */
    void *prime[2];
    inside = 1;
    backtrace(prime, 2);
    inside = 0;
    ready = 1;
}

__attribute__((destructor)) static void allocsites_dump(void)
{
    ready = 0;
    inside = 1;
    const char *path = getenv("ALLOCSITES_OUT");
    FILE *out = fopen(path ? path : "allocsites.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++) {
        fprintf(out, "A %lu", samples[i].size);
        for (int f = 0; f < samples[i].depth; f++)
            fprintf(out, " %lx", (unsigned long)samples[i].ips[f]);
        fputc('\n', out);
    }
    fprintf(out, "T %lu %lu %lu\n", (unsigned long)EVERY, seen, seen_bytes);
    fprintf(out, "D %lu\n", taken - n);
    fclose(maps);
    fclose(out);
}
