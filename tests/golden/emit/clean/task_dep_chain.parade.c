/* translated by paradec — ParADE hybrid runtime */
#include "parade_rt.h"
#include <pthread.h>

int main(void)
{
    double a;
    double b;
    a = 0.0;
    b = 0.0;
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.a = &a;
        __a0.b = &b;
        parade_parallel(__parade_region_0, &__a0);
    }
    printf("%f %f\n", a, b);
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    double (*a);
    double (*b);
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*a) = __a->a;
    double (*b) = __a->b;
    {
        /* task depend(out:a): program order subsumes the edges */
        {
            (*a) = ((*a) + 1.0);
        }
        /* task depend(in:a, out:b): program order subsumes the edges */
        {
            (*b) = ((*b) + (*a));
        }
        /* taskwait: no-op under serial elision */
    }
}

