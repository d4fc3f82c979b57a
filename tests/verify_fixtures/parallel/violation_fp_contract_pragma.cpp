// Fixture: FP_CONTRACT ON lets the compiler fuse a*b+c into one rounding
// anywhere in the translation unit. The pragma is flagged in every file,
// not only in bit_exact lane code: the scalar reference path is what the
// batch lanes must match bit for bit.
#pragma STDC FP_CONTRACT ON  // expect: fp-contract

namespace fix_par {

double contracted(double a, double b, double c) { return a * b + c; }

}  // namespace fix_par
