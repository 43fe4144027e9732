/* How many thread hand-offs does a run make? An LD_PRELOAD interposer on
 * libc's syscall(), which is how Rust's std reaches futex(2): every mutex,
 * condvar and channel park or wake passes through here.
 *
 * Futex calls are classified by operation and return value — parks (a wait
 * that slept), waits that found the word already changed, wakes that woke a
 * thread and wakes that found nobody — and the four counts are written to
 * `$PARADE_FUTEX_OUT.<pid>` at exit. x86-64 Linux only. See
 * `scripts/profile.sh --futex`. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <linux/futex.h>
#include <stdarg.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/syscall.h>
#include <unistd.h>

static long (*real)(long, ...);
static unsigned long parks, raced, woke, empty;

long syscall(long number, ...) {
    long a[6];
    va_list ap;
    va_start(ap, number);
    for (int i = 0; i < 6; i++) a[i] = va_arg(ap, long);
    va_end(ap);
    if (!real) real = (long (*)(long, ...))dlsym(RTLD_NEXT, "syscall");
    long ret = real(number, a[0], a[1], a[2], a[3], a[4], a[5]);
    if (number != SYS_futex) return ret;
    int op = (int)a[1] & FUTEX_CMD_MASK;
    unsigned long *count = NULL;
    if (op == FUTEX_WAIT || op == FUTEX_WAIT_BITSET)
        count = ret == -1 && errno == EAGAIN ? &raced : &parks;
    else if (op == FUTEX_WAKE || op == FUTEX_WAKE_BITSET)
        count = ret > 0 ? &woke : &empty;
    if (count) __atomic_fetch_add(count, 1, __ATOMIC_RELAXED);
    return ret;
}

__attribute__((destructor)) static void dump(void) {
    const char *base = getenv("PARADE_FUTEX_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", base ? base : "parade_futex", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out) return;
    fprintf(out, "parks %lu\nraced_waits %lu\nwakes_that_woke %lu\nempty_wakes %lu\n",
            parks, raced, woke, empty);
    fclose(out);
}
