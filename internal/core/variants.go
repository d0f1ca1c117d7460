package core

import (
	"errors"
	"fmt"
	"strings"
)

// A collection builds and signs only the structures its variant set needs
// (docs/ARCHITECTURE.md, step 1): plain lists for an MHT kind, the chain
// layout of a CMHT kind, document records for a TRA kind. The set is
// committed in the signed manifest, so a server cannot claim a variant the
// owner published was never built, and a client knows what it may ask.

// VariantSet is a set of structure kinds: bit kind−1 set means the kind is
// built. The zero value means all four — the paper's full build — so every
// configuration and manifest that predates the set keeps its meaning.
type VariantSet uint8

// AllVariants is the full set, what the zero value stands for.
const AllVariants VariantSet = 1<<4 - 1

// ErrVariantNotBuilt reports a query for a structure kind outside the
// collection's variant set. It is a refusal, not tampering.
var ErrVariantNotBuilt = errors.New("variant not built")

// VariantOf returns the set holding exactly the given kinds.
func VariantOf(kinds ...StructureKind) VariantSet {
	var s VariantSet
	for _, k := range kinds {
		s |= 1 << (k - 1)
	}
	return s
}

// Resolve makes the zero value explicit: it returns AllVariants for 0.
func (s VariantSet) Resolve() VariantSet {
	if s == 0 {
		return AllVariants
	}
	return s
}

// Has reports whether kind is in the set.
func (s VariantSet) Has(kind StructureKind) bool {
	return kind >= KindTRAMHT && kind <= KindTNRACMHT && s.Resolve()&VariantOf(kind) != 0
}

// HasTRA reports whether a TRA kind is in the set: TRA's random accesses
// need the signed document records.
func (s VariantSet) HasTRA() bool { return s.Has(KindTRAMHT) || s.Has(KindTRACMHT) }

// HasMHT reports whether an MHT kind is in the set: both read the plain
// list layout.
func (s VariantSet) HasMHT() bool { return s.Has(KindTRAMHT) || s.Has(KindTNRAMHT) }

// Kinds lists the set's kinds in ascending order.
func (s VariantSet) Kinds() []StructureKind {
	var out []StructureKind
	for k := KindTRAMHT; k <= KindTNRACMHT; k++ {
		if s.Has(k) {
			out = append(out, k)
		}
	}
	return out
}

// String implements fmt.Stringer: "all" for the full set, else the kind
// names joined by commas — the spelling ParseVariantSet reads.
func (s VariantSet) String() string {
	if s.Resolve() == AllVariants {
		return "all"
	}
	names := make([]string, 0, 4)
	for _, k := range s.Kinds() {
		names = append(names, k.String())
	}
	return strings.Join(names, ",")
}

// String implements fmt.Stringer: "tra-mht", "tra-cmht", "tnra-mht" or
// "tnra-cmht", the names of the wire's algo and scheme values joined.
func (k StructureKind) String() string {
	switch k {
	case KindTRAMHT:
		return "tra-mht"
	case KindTRACMHT:
		return "tra-cmht"
	case KindTNRAMHT:
		return "tnra-mht"
	case KindTNRACMHT:
		return "tnra-cmht"
	}
	return fmt.Sprintf("StructureKind(%d)", uint8(k))
}

// ParseVariantSet reads "all" or a comma-separated list of kind names
// (case-insensitive). An empty list, an unknown name or a name given twice
// is an error.
func ParseVariantSet(s string) (VariantSet, error) {
	if strings.EqualFold(strings.TrimSpace(s), "all") {
		return AllVariants, nil
	}
	var set VariantSet
	for _, name := range strings.Split(s, ",") {
		name = strings.ToLower(strings.TrimSpace(name))
		var kind StructureKind
		for k := KindTRAMHT; k <= KindTNRACMHT; k++ {
			if k.String() == name {
				kind = k
			}
		}
		switch {
		case name == "":
			return 0, fmt.Errorf("empty variant name in %q", s)
		case kind == 0:
			return 0, fmt.Errorf("unknown variant %q (want all, or tra-mht, tra-cmht, tnra-mht, tnra-cmht)", name)
		case set&VariantOf(kind) != 0:
			return 0, fmt.Errorf("variant %q listed twice", name)
		}
		set |= VariantOf(kind)
	}
	return set, nil
}
