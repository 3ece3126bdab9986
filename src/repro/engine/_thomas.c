/* The compiled half of the engine: prefactored tridiagonal substitutions
 * and whole coupled redox segments.
 *
 * Every element sees exactly the operations of the Python reference
 * path, in the same order, so either path gives the same bits.  Build
 * with -ffp-contract=off so no multiply-add is fused, and link -lm:
 * exp is libm's, the function Python's math.exp calls.
 */
#include <math.h>

/* Forward and back substitution of prefactored tridiagonal systems.
 *
 * x holds m independent right-hand sides of n nodes, row-major (m, n),
 * and is solved in place; lower and c_prime are (m, n - 1), denom is
 * (m, n).  Node i is the outer loop and system j the inner one, so the
 * divides of independent systems overlap.  The operations are the
 * Python sweep's: (r - lo * prev) / de forward, x[i] - cp[i] * x[i + 1]
 * back.
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

/* state = clip(source * w + u, 0, None), with np.clip's semantics:
 * -0.0 becomes +0.0 and NaN stays NaN. */
static void surface_update(long n, double source, const double *w,
                           const double *u, double *state)
{
    for (long i = 0; i < n; i++) {
        double v = source * w[i] + u[i];
        state[i] = (v > 0.0 || v != v) ? v : 0.0;
    }
}

/* Run `steps` steps of RedoxChannelBatch.step over m channels.
 *
 * state is the (2m, n) stacked profile (rows [0, m) oxidised, [m, 2m)
 * reduced), advanced in place; work is (2m, n) scratch.  elower, ediag
 * and eupper are the explicit bands, lower, denom and c_prime the
 * implicit factorization, w the surface responses, all over the 2m
 * rows, n >= 2.  bv holds per channel (n F/RT, e_formal, k0, -alpha,
 * 1 - alpha, s w0, s), program the (steps, m) potentials, and fluxes
 * receives the (steps, m) reduction fluxes.
 */
void redox_segment(long steps, long m, long n,
                   const double *elower, const double *ediag,
                   const double *eupper, const double *lower,
                   const double *denom, const double *c_prime,
                   const double *w, const double *bv,
                   const double *program, double *state, double *work,
                   double *fluxes)
{
    long rows = 2 * m;
    for (long k = 0; k < steps; k++) {
        /* The explicit right-hand side, in explicit_rhs's order:
         * (ediag s + eupper s[i+1]) + elower s[i-1]. */
        for (long r = 0; r < rows; r++) {
            const double *s = state + r * n;
            const double *ed = ediag + r * n;
            const double *eu = eupper + r * (n - 1);
            const double *el = elower + r * (n - 1);
            double *x = work + r * n;
            x[0] = ed[0] * s[0] + eu[0] * s[1];
            for (long i = 1; i < n - 1; i++)
                x[i] = (ed[i] * s[i] + eu[i] * s[i + 1]) + el[i - 1] * s[i - 1];
            x[n - 1] = ed[n - 1] * s[n - 1] + el[n - 2] * s[n - 2];
        }
        thomas_sweep(rows, n, lower, denom, c_prime, work);
        for (long j = 0; j < m; j++) {
            const double *c = bv + 7 * j;
            double x = c[0] * (program[k * m + j] - c[1]);
            /* min(max(x, -500.0), 500.0), as Python evaluates it. */
            if (-500.0 > x)
                x = -500.0;
            if (500.0 < x)
                x = 500.0;
            double kf = c[2] * exp(c[3] * x);
            double kb = c[2] * exp(c[4] * x);
            double flux = (kf * work[j * n] - kb * work[(j + m) * n])
                          / (1.0 + c[5] * (kf + kb));
            double scaled = flux * c[6];
            fluxes[k * m + j] = flux;
            surface_update(n, -scaled, w + j * n, work + j * n,
                           state + j * n);
            surface_update(n, scaled, w + (j + m) * n, work + (j + m) * n,
                           state + (j + m) * n);
        }
    }
}
