/* A sampling profiler for hosts without `perf`: an LD_PRELOAD library.
 *
 * At load it arms ITIMER_PROF; on every SIGPROF it records the interrupted
 * thread's program counter and walks the saved-rbp chain, so the profiled
 * program must be built with frame pointers
 * (`-C force-frame-pointers=yes`). At exit it writes /proc/self/maps and the
 * raw stacks to `$PARADE_PROF_OUT.<pid>`; `symbolize.py` turns that into
 * flat and inclusive tables. x86-64 Linux only. See `scripts/profile.sh`.
 *
 * Frames are read with process_vm_readv on our own pid: an rbp that a leaf
 * without frame pointers has used as a scratch register then yields EFAULT
 * instead of a fault inside the handler. */
#define _GNU_SOURCE
#include <errno.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

enum { DEPTH = 48, MAX_SAMPLES = 1 << 18, HZ = 997 };

static uintptr_t (*samples)[DEPTH]; /* zero-terminated stacks */
static long taken;                  /* samples attempted */
static pid_t self;

static int read_frame(uintptr_t at, uintptr_t frame[2]) {
    struct iovec to = {frame, 2 * sizeof(uintptr_t)};
    struct iovec from = {(void *)at, 2 * sizeof(uintptr_t)};
    return process_vm_readv(self, &to, 1, &from, 1, 0) == (ssize_t)to.iov_len;
}

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    long slot = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (slot >= MAX_SAMPLES) return;
    int saved_errno = errno;
    const ucontext_t *uc = ctx;
    uintptr_t *stack = samples[slot];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    int n = 0;
    stack[n++] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    while (n < DEPTH - 1 && fp && (fp & 7) == 0) {
        uintptr_t frame[2]; /* saved rbp, return address */
        if (!read_frame(fp, frame) || frame[1] < 4096) break;
        stack[n++] = frame[1];
        if (frame[0] <= fp) break; /* the chain only moves up the stack */
        fp = frame[0];
    }
    stack[n] = 0;
    errno = saved_errno;
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *base = getenv("PARADE_PROF_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", base ? base : "parade_prof", (int)self);
    FILE *out = fopen(path, "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    char line[4096];
    fputs("MAPS\n", out);
    while (fgets(line, sizeof line, maps)) fputs(line, out);
    fputs("SAMPLES\n", out);
    long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (long i = 0; i < n; i++) {
        for (int d = 0; d < DEPTH && samples[i][d]; d++)
            fprintf(out, d ? " %lx" : "%lx", (unsigned long)samples[i][d]);
        fputc('\n', out);
    }
    fclose(maps);
    fclose(out);
}

__attribute__((constructor)) static void arm(void) {
    self = getpid();
    samples = mmap(NULL, sizeof(*samples) * MAX_SAMPLES, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (samples == MAP_FAILED) return;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, NULL) != 0) return;
    atexit(dump);
    struct itimerval tick = {{0, 1000000 / HZ}, {0, 1000000 / HZ}};
    setitimer(ITIMER_PROF, &tick, NULL);
}
