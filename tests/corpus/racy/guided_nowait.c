/* `nowait` on a guided loop removes its join exactly as on a static one:
 * the second loop reads `a` in reverse while stragglers may still be
 * writing it.
 * Expected: PC005 statically; read-write races on `a` dynamically. */
int main() {
    int i;
    double a[64];
    double b[64];
    #pragma omp parallel
    {
        #pragma omp for schedule(guided, 2) nowait
        for (i = 0; i < 64; i++) {
            a[i] = 1.0 * i;
        }
        #pragma omp for schedule(guided, 2)
        for (i = 0; i < 64; i++) {
            b[i] = a[63 - i];
        }
    }
    return 0;
}
