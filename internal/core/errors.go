package core

import (
	"errors"
	"fmt"
)

// VerifyCode classifies verification failures; the failure-injection test
// suite asserts specific codes for each tampering strategy of the §1 threat
// model (incomplete results, altered ranking, spurious results).
type VerifyCode int

const (
	// VerifyOK is the zero value; VerifyError never carries it.
	VerifyOK VerifyCode = iota
	// CodeMalformedVO: structural problems in the VO itself.
	CodeMalformedVO
	// CodeBadSignature: an owner signature failed to verify.
	CodeBadSignature
	// CodeBadTermProof: a list prefix did not reproduce its signed root.
	CodeBadTermProof
	// CodeBadDocProof: a document-MHT proof failed (bad root, missing term
	// evidence, or broken non-membership adjacency).
	CodeBadDocProof
	// CodeBadContent: delivered document content does not match its
	// committed digest.
	CodeBadContent
	// CodeBadScore: a claimed score differs from the recomputed one.
	CodeBadScore
	// CodeBadOrdering: result entries are not in non-increasing score order.
	CodeBadOrdering
	// CodeThreshold: the cut-off threshold exceeds the last result score, so
	// unseen documents could outrank the result (incomplete result).
	CodeThreshold
	// CodeIncomplete: an encountered non-result document outscores the
	// result tail, or the result is short without list exhaustion.
	CodeIncomplete
	// CodeSpurious: the result contains a document that cannot be accounted
	// for by the revealed prefixes.
	CodeSpurious
	// CodeBadVocabProof: an out-of-dictionary claim lacks a valid
	// non-membership proof.
	CodeBadVocabProof
	// CodeBadConditions: the TNRA termination conditions do not hold over
	// the revealed prefixes.
	CodeBadConditions
	// CodeStaleGeneration: the answer pins a different (usually older)
	// publication generation than the manifest the client holds — a
	// replayed or rolled-back answer from a live collection
	// (docs/UPDATES.md).
	CodeStaleGeneration
	// CodeEquivocation: a fleet of replicas presented conflicting signed
	// states for the same collection — two different manifests for one
	// generation (split view / forked generation chain), or a replica
	// persistently frozen at an old generation while the rest of the
	// fleet advances. Unlike transport failures, this is supported by
	// signatures on both sides of the conflict, so it is tampering, never
	// a transient error (docs/FLEET.md).
	CodeEquivocation
	// CodeVariantWithheld: a server refused a query as "variant not built"
	// although the signed manifest lists the variant — an answer withheld
	// under a false claim.
	CodeVariantWithheld
)

// String implements fmt.Stringer.
func (c VerifyCode) String() string {
	switch c {
	case VerifyOK:
		return "ok"
	case CodeMalformedVO:
		return "malformed-vo"
	case CodeBadSignature:
		return "bad-signature"
	case CodeBadTermProof:
		return "bad-term-proof"
	case CodeBadDocProof:
		return "bad-doc-proof"
	case CodeBadContent:
		return "bad-content"
	case CodeBadScore:
		return "bad-score"
	case CodeBadOrdering:
		return "bad-ordering"
	case CodeThreshold:
		return "threshold-violated"
	case CodeIncomplete:
		return "incomplete-result"
	case CodeSpurious:
		return "spurious-result"
	case CodeBadVocabProof:
		return "bad-vocab-proof"
	case CodeBadConditions:
		return "tnra-conditions-violated"
	case CodeStaleGeneration:
		return "stale-generation"
	case CodeEquivocation:
		return "equivocation"
	case CodeVariantWithheld:
		return "variant-withheld"
	}
	return fmt.Sprintf("VerifyCode(%d)", int(c))
}

// VerifyError is returned by Verify when a result fails authentication.
type VerifyError struct {
	Code   VerifyCode
	Detail string
}

// Error implements error.
func (e *VerifyError) Error() string {
	return fmt.Sprintf("verify: %s: %s", e.Code, e.Detail)
}

// Is makes two VerifyErrors match under errors.Is when they carry the same
// code, so sentinel values like authtext.ErrStaleGeneration work without
// forcing every construction site to thread one shared instance through.
func (e *VerifyError) Is(target error) bool {
	t, ok := target.(*VerifyError)
	return ok && t.Code == e.Code
}

func vErr(code VerifyCode, format string, args ...interface{}) *VerifyError {
	return &VerifyError{Code: code, Detail: fmt.Sprintf(format, args...)}
}

// CodeOf extracts the VerifyCode from an error, unwrapping fmt.Errorf
// chains (VerifyOK for nil or foreign errors).
func CodeOf(err error) VerifyCode {
	var ve *VerifyError
	if errors.As(err, &ve) {
		return ve.Code
	}
	return VerifyOK
}
