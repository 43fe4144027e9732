/* `atomic` on the min/max combining forms `x = fmin(x, e)` and
 * `x = fmax(e, x)`. Expected: clean. */
int main() {
    double lo;
    double hi;
    lo = 100.0;
    hi = -100.0;
    #pragma omp parallel
    {
        #pragma omp atomic
        lo = fmin(lo, 1.5 + omp_get_thread_num());
        #pragma omp atomic
        hi = fmax(2.0 * omp_get_thread_num(), hi);
    }
    printf("%f %f\n", lo, hi);
    return 0;
}
