// Package gf provides arithmetic in prime fields GF(q) and polynomial
// evaluation over them. It is the algebraic substrate of Linial's colour
// reduction (used by internal/coloring): colours are encoded as low-degree
// polynomials over a prime field, and the one-round reduction step relies on
// two distinct polynomials of degree < t agreeing on fewer than t points.
package gf

import "fmt"

// IsPrime reports whether n is prime, by trial division (the fields used by
// the colouring substrate are tiny, so this is plenty).
func IsPrime(n int) bool {
	if n < 2 {
		return false
	}
	if n%2 == 0 {
		return n == 2
	}
	for f := 3; f*f <= n; f += 2 {
		if n%f == 0 {
			return false
		}
	}
	return true
}

// NextPrime returns the smallest prime >= n.
func NextPrime(n int) int {
	if n <= 2 {
		return 2
	}
	for {
		if IsPrime(n) {
			return n
		}
		n++
	}
}

// Field is the prime field GF(Q). Elements are represented as ints in
// [0, Q). The zero value is not usable; construct fields with New.
type Field struct {
	q int
}

// New returns GF(q). It panics if q is not prime: a composite modulus would
// silently break the agreement bound Linial's argument needs.
func New(q int) Field {
	if !IsPrime(q) {
		panic(fmt.Sprintf("gf: %d is not prime", q))
	}
	return Field{q: q}
}

// Q returns the field order.
func (f Field) Q() int { return f.q }

// Norm reduces an arbitrary int into [0, Q).
func (f Field) Norm(a int) int {
	a %= f.q
	if a < 0 {
		a += f.q
	}
	return a
}

// Add returns a + b in the field.
func (f Field) Add(a, b int) int { return (a + b) % f.q }

// Sub returns a - b in the field.
func (f Field) Sub(a, b int) int { return f.Norm(a - b) }

// Mul returns a · b in the field.
func (f Field) Mul(a, b int) int {
	return int((int64(a) * int64(b)) % int64(f.q))
}

// Pow returns a^e in the field, for e >= 0.
func (f Field) Pow(a, e int) int {
	if e < 0 {
		panic("gf: negative exponent")
	}
	result := 1 % f.q
	base := f.Norm(a)
	for e > 0 {
		if e&1 == 1 {
			result = f.Mul(result, base)
		}
		base = f.Mul(base, base)
		e >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of a. It panics on a ≡ 0.
func (f Field) Inv(a int) int {
	a = f.Norm(a)
	if a == 0 {
		panic("gf: inverse of zero")
	}
	// Fermat: a^(q-2).
	return f.Pow(a, f.q-2)
}

// EvalDigits evaluates at point x, by Horner's rule, the polynomial whose
// coefficients are the base-q digits of v >= 0, least significant first,
// padded or truncated to exactly t of them (the coefficient of x^i is
// ⌊v/q^i⌋ mod q for i < t). It is how a colour is read as a polynomial of
// degree below t, without materialising its digits.
func (f Field) EvalDigits(v, t, x int) int {
	if t <= 0 {
		return 0
	}
	// top is the place value of the highest digit that can be non-zero:
	// q^(t-1), or less when v has fewer digits (leading zeros add nothing).
	top := 1
	for i := 1; i < t && top <= v/f.q; i++ {
		top *= f.q
	}
	result := 0
	for p := top; p > 0; p /= f.q {
		result = f.Add(f.Mul(result, x), (v/p)%f.q)
	}
	return result
}
