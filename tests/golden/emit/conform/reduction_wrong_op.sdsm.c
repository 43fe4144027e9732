/* translated by paradec — conventional SDSM runtime */
#include "sdsm_rt.h"

int main(void)
{
    int i;
    double p;
    p = 1.0;
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.p = &p;
        parade_parallel(__parade_region_0, &__a0);
    }
    printf("%f\n", p);
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    double (*p);
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*p) = __a->p;
    int i;  /* private */
    double p__red = 1.0;  /* reduction(*) local */
    {
        long __lo, __hi;
        parade_loop_static(0, 8, &__lo, &__hi);  /* static schedule */
        for (i = __lo; i < __hi; i += 1)
        {
            p__red += 1.0;
        }
    }
    sdsm_barrier();  /* implicit barrier of omp for */
    sdsm_lock(0);
    *p = *p * p__red;
    sdsm_unlock(0);
    sdsm_barrier();
}

