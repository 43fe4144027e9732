/* translated by paradec — conventional SDSM runtime */
#include <stdio.h>
#include "sdsm_rt.h"

int main(void)
{
    int i;
    double pos[64];
    double acc[64];
    double pot;
    double kin;
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.acc = &acc;
        __a0.pos = &pos;
        parade_parallel(__parade_region_0, &__a0);
    }
    pot = 0.0;
    kin = 0.0;
    /* parallel region 1: fork-join via the ParADE runtime */
    {
        struct __parade_region_1_args __a1;
        __a1.acc = &acc;
        __a1.kin = &kin;
        __a1.pos = &pos;
        __a1.pot = &pot;
        parade_parallel(__parade_region_1, &__a1);
    }
    printf("pot = %.6f, kin = %.6f\n", pot, kin);
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    double (*acc)[64];
    double (*pos)[64];
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*acc)[64] = __a->acc;
    double (*pos)[64] = __a->pos;
    int i;  /* private */
    {
        long __lo, __hi;
        parade_loop_static(0, 64, &__lo, &__hi);  /* static schedule */
        for (i = __lo; i < __hi; i += 1)
        {
            (*pos)[i] = (0.01 * i);
            (*acc)[i] = 0.0;
        }
    }
    sdsm_barrier();  /* implicit barrier of omp for */
}

struct __parade_region_1_args {
    double (*acc)[64];
    double (*kin);
    double (*pos)[64];
    double (*pot);
};
static void __parade_region_1(void *__arg)
{
    struct __parade_region_1_args *__a = (struct __parade_region_1_args *)__arg;
    double (*acc)[64] = __a->acc;
    double (*kin) = __a->kin;
    double (*pos)[64] = __a->pos;
    double (*pot) = __a->pot;
    {
        /* task depend(out:acc): program order subsumes the edges */
        {
            int j;
            for (j = 0; (j < 64); j += 1)
            {
                (*acc)[j] = ((*acc)[j] + (0.5 * (*pos)[j]));
            }
        }
        /* task depend(in:acc, out:pot): program order subsumes the edges */
        {
            int j;
            for (j = 0; (j < 64); j += 1)
            {
                (*pot) = ((*pot) + ((*acc)[j] * (*pos)[j]));
            }
        }
        /* task depend(in:acc, out:kin): program order subsumes the edges */
        {
            int j;
            for (j = 0; (j < 64); j += 1)
            {
                (*kin) = ((*kin) + ((0.5 * (*acc)[j]) * (*acc)[j]));
            }
        }
        /* taskwait: no-op under serial elision */
    }
}

