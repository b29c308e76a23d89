// Package fixture exercises the validatefirst analyzer: exported readers
// of BackendCiphertext component polys must call a //mqx:validator
// function before touching .A or .B.
package fixture

import (
	"fmt"

	"mqxgo/internal/fhe"
)

// Validate is the fixture's ciphertext validator; the annotation is what
// makes calls to it satisfy the ordered-check rule.
//
//mqx:validator
func Validate(ct fhe.BackendCiphertext) error {
	if ct.A == nil || ct.B == nil {
		return fmt.Errorf("fixture: nil component")
	}
	return nil
}

// Components reads the component polys with no check at all.
func Components(ct fhe.BackendCiphertext) (fhe.Poly, fhe.Poly) {
	return ct.A, ct.B // want `Components reads BackendCiphertext\.A without a prior validation`
}

// ComponentsChecked validates before the reads.
func ComponentsChecked(ct fhe.BackendCiphertext) (fhe.Poly, fhe.Poly, error) {
	if err := Validate(ct); err != nil {
		return nil, nil, err
	}
	return ct.A, ct.B, nil
}

// LevelOnly inspects another field before the read: only a validator
// call counts as the check.
func LevelOnly(ct fhe.BackendCiphertext) fhe.Poly {
	if ct.Level != 0 {
		return nil
	}
	return ct.A // want `LevelOnly reads BackendCiphertext\.A without a prior validation`
}

// LateCheck bolts the validation on after the arithmetic: the ordered
// rule still reports it.
func LateCheck(ct fhe.BackendCiphertext) fhe.Poly {
	a := ct.A // want `LateCheck reads BackendCiphertext\.A without a prior validation`
	if err := Validate(ct); err != nil {
		return nil
	}
	return a
}

// componentInternal is unexported: inside the validated perimeter, exempt.
func componentInternal(ct fhe.BackendCiphertext) fhe.Poly {
	return ct.A
}

// ComponentAllowed reads without a check, consciously accepted.
func ComponentAllowed(ct fhe.BackendCiphertext) fhe.Poly {
	//mqx:allow validatefirst fixture reads a component deliberately
	return ct.A
}

var _ = componentInternal
