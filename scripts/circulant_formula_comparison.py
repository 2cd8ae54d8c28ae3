#!/usr/bin/env python3
"""Exhibit the circulant moment-formula correction.

Prints, for the sparse sign law, the exact finite-N value of E[Tr(C^k)]
along odd primes next to the corrected limit (with part-multiplicity
symmetry factors) and the uncorrected multinomial display.  The exact
values drift toward the corrected column and away from the uncorrected
one; at k=4 the uncorrected display overcounts {2,2} by 2x.
"""

from fractions import Fraction

from explodingmoments.limits import circulant_limit_moment
from explodingmoments.oracle import exact_table
from explodingmoments.profiles import profile_of_scalar_law, sign_scalar_law


def main():
    law = sign_scalar_law()
    prof = profile_of_scalar_law(law, kmax=6)
    tables = exact_table("circulant", law, (7, 11, 13), 6)
    print(f"{'k':>2} {'N':>3} {'exact E[Tr C^k]':>18} {'corrected':>10} {'uncorrected':>12}")
    for k in range(2, 7):
        corr = circulant_limit_moment(k, prof)
        unc = circulant_limit_moment(k, prof, paper_formula=True)
        for n, table in tables.items():
            val = table[(k, None)]
            print(f"{k:>2} {n:>3} {str(val):>12} ={float(val):6.3f} {str(corr):>10} {str(unc):>12}")
    print()
    print("gap to corrected at k=4 is exactly 3/N; the uncorrected display is off by 3.")


if __name__ == "__main__":
    main()
