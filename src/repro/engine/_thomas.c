/* Forward and back substitution of prefactored tridiagonal systems.
 *
 * x holds m independent right-hand sides of n nodes, row-major (m, n),
 * and is solved in place; lower and c_prime are (m, n - 1), denom is
 * (m, n).  Node i is the outer loop and system j the inner one, so the
 * divides of independent systems overlap.  Each element sees exactly
 * the operations of the Python reference sweep, in the same order:
 * (r - lo * prev) / de forward, x[i] - cp[i] * x[i + 1] back.  Build
 * with -ffp-contract=off so no multiply-add is fused.
 */
void thomas_sweep(long m, long n, const double *lower, const double *denom,
                  const double *c_prime, double *x)
{
    for (long j = 0; j < m; j++)
        x[j * n] = x[j * n] / denom[j * n];
    for (long i = 1; i < n; i++)
        for (long j = 0; j < m; j++)
            x[j * n + i] = (x[j * n + i]
                            - lower[j * (n - 1) + i - 1] * x[j * n + i - 1])
                           / denom[j * n + i];
    for (long i = n - 2; i >= 0; i--)
        for (long j = 0; j < m; j++)
            x[j * n + i] = x[j * n + i]
                           - c_prime[j * (n - 1) + i] * x[j * n + i + 1];
}
