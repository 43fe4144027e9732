/* `atomic` on a braced update statement: the shape `paradec check`
 * accepts, so it must run and translate too. Expected: clean. */
int main() {
    double x;
    x = 0.0;
    #pragma omp parallel
    {
        #pragma omp atomic
        { x += 2.0; }
    }
    printf("%f\n", x);
    return 0;
}
