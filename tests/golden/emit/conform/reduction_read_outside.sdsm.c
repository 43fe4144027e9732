/* translated by paradec — conventional SDSM runtime */
#include "sdsm_rt.h"

int main(void)
{
    int i;
    double s;
    double a[64];
    s = 0.0;
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.a = &a;
        __a0.s = &s;
        parade_parallel(__parade_region_0, &__a0);
    }
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    double (*a)[64];
    double (*s);
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*a)[64] = __a->a;
    double (*s) = __a->s;
    int i;  /* private */
    double s__red = 0.0;  /* reduction(+) local */
    {
        long __lo, __hi;
        parade_loop_static(0, 64, &__lo, &__hi);  /* static schedule */
        for (i = __lo; i < __hi; i += 1)
        {
            (*a)[i] = s__red;
            s__red += 1.0;
        }
    }
    sdsm_barrier();  /* implicit barrier of omp for */
    sdsm_lock(0);
    *s = *s + s__red;
    sdsm_unlock(0);
    sdsm_barrier();
}

