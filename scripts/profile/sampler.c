/* A SIGPROF sampling profiler, loaded into a program with LD_PRELOAD.
 *
 * Every tick of the process CPU-time timer records the interrupted PC and
 * the frame-pointer chain above it (build the program with
 * -C force-frame-pointers=yes). Frames are read with process_vm_readv, so
 * a broken chain ends a stack instead of crashing the program. Output, to
 * $PROF_OUT: a text line "base <hex>" (the executable's load address),
 * then one binary record per sample: a u64 word count, the PC, the word
 * at the stack pointer (the return address when the PC is in a libc leaf
 * that keeps no frame, such as memcpy), and the return addresses of the
 * frame chain, innermost first.
 * Build: gcc -O2 -shared -fPIC sampler.c -o sampler.so */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_FRAMES 128

static int out_fd = -1;

static int read_word(uintptr_t addr, uintptr_t *word) {
    struct iovec local = {word, sizeof *word};
    struct iovec remote = {(void *)addr, sizeof *word};
    return process_vm_readv(getpid(), &local, 1, &remote, 1, 0) == sizeof *word;
}

static void on_tick(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    int saved_errno = errno;
    mcontext_t *m = &((ucontext_t *)context)->uc_mcontext;
    uint64_t record[MAX_FRAMES + 1];
    uint64_t n = 0;
    uintptr_t fp = m->gregs[REG_RBP], sp = m->gregs[REG_RSP], top = 0;
    record[++n] = m->gregs[REG_RIP];
    record[++n] = read_word(sp, &top) ? top : 0;
    while (n < MAX_FRAMES && fp >= sp && fp % 8 == 0) {
        uintptr_t next, ret;
        if (!read_word(fp, &next) || !read_word(fp + 8, &ret) || ret == 0)
            break;
        record[++n] = ret;
        if (next <= fp)
            break;
        fp = next;
    }
    record[0] = n;
    if (write(out_fd, record, (n + 1) * sizeof record[0]) < 0) {
        /* A lost sample is not worth failing the program for. */
    }
    errno = saved_errno;
}

static int first_object(struct dl_phdr_info *info, size_t size, void *base) {
    (void)size;
    *(uintptr_t *)base = info->dlpi_addr;
    return 1; /* the executable comes first */
}

__attribute__((constructor)) static void start(void) {
    const char *path = getenv("PROF_OUT");
    if (!path || (out_fd = open(path, O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644)) < 0)
        return;
    uintptr_t base = 0;
    dl_iterate_phdr(first_object, &base);
    dprintf(out_fd, "base %lx\n", (unsigned long)base);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_tick;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}
