/* translated by paradec — conventional SDSM runtime */
#include <stdio.h>
#include "sdsm_rt.h"

int main(void)
{
    int i;
    double raw[256];
    double scaled[256];
    double smoothed[256];
    double total;
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.raw = &raw;
        __a0.scaled = &scaled;
        __a0.smoothed = &smoothed;
        parade_parallel(__parade_region_0, &__a0);
    }
    /* parallel region 1: fork-join via the ParADE runtime */
    {
        struct __parade_region_1_args __a1;
        __a1.raw = &raw;
        __a1.scaled = &scaled;
        __a1.smoothed = &smoothed;
        parade_parallel(__parade_region_1, &__a1);
    }
    total = 0.0;
    /* target device(0) map(to:smoothed, tofrom:total): host fallback (the runtime offloads via pinned tasks + DSM notices) */
    {
        for (i = 0; (i < 256); i += 1)
        {
            total = (total + smoothed[i]);
        }
    }
    printf("total = %.6f\n", total);
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    double (*raw)[256];
    double (*scaled)[256];
    double (*smoothed)[256];
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*raw)[256] = __a->raw;
    double (*scaled)[256] = __a->scaled;
    double (*smoothed)[256] = __a->smoothed;
    int i;  /* private */
    {
        long __lo, __hi;
        parade_loop_static(0, 256, &__lo, &__hi);  /* static schedule */
        for (i = __lo; i < __hi; i += 1)
        {
            (*raw)[i] = (0.5 + (0.001 * i));
            (*scaled)[i] = 0.0;
            (*smoothed)[i] = 0.0;
        }
    }
    sdsm_barrier();  /* implicit barrier of omp for */
}

struct __parade_region_1_args {
    double (*raw)[256];
    double (*scaled)[256];
    double (*smoothed)[256];
};
static void __parade_region_1(void *__arg)
{
    struct __parade_region_1_args *__a = (struct __parade_region_1_args *)__arg;
    double (*raw)[256] = __a->raw;
    double (*scaled)[256] = __a->scaled;
    double (*smoothed)[256] = __a->smoothed;
    {
        /* task depend(in:raw, out:scaled): program order subsumes the edges */
        {
            int j;
            for (j = 0; (j < 256); j += 1)
            {
                (*scaled)[j] = (2.0 * (*raw)[j]);
            }
        }
        /* task depend(in:scaled, out:smoothed): program order subsumes the edges */
        {
            int j;
            for (j = 1; (j < 255); j += 1)
            {
                (*smoothed)[j] = (((0.25 * (*scaled)[(j - 1)]) + (0.5 * (*scaled)[j])) + (0.25 * (*scaled)[(j + 1)]));
            }
        }
        /* taskwait: no-op under serial elision */
    }
}

