package core

import "testing"

// TestEnumNamesDistinctAndNonFallback requires every value of the accounting
// enums to render a distinct, non-fallback name: the stacks are reported by
// name, so a missing or duplicated entry in a name table silently merges or
// hides components in every plot and log line.
func TestEnumNamesDistinctAndNonFallback(t *testing.T) {
	cases := []struct {
		enum     string
		fallback string
		n        int
		str      func(int) string
	}{
		{"Component", "Comp?", int(NumComponents),
			func(i int) string { return Component(i).String() }},
		{"FECause", "fe?", int(numFECauses),
			func(i int) string { return FECause(i).String() }},
		{"FLOPSComponent", "FComp?", int(NumFLOPSComponents),
			func(i int) string { return FLOPSComponent(i).String() }},
		{"StructuralCause", "struct?", int(NumStructuralCauses),
			func(i int) string { return StructuralCause(i).String() }},
		{"ProdClass", "prod?", int(numProdClasses),
			func(i int) string { return ProdClass(i).String() }},
		{"Stage", "stage?", int(StageFetch) + 1,
			func(i int) string { return Stage(i).String() }},
		{"MemLevel", "mem?", int(NumMemLevels),
			func(i int) string { return MemLevel(i).String() }},
		{"WrongPathScheme", "scheme?", int(numWrongPathSchemes),
			func(i int) string { return WrongPathScheme(i).String() }},
	}
	for _, c := range cases {
		seen := make(map[string]int, c.n)
		for i := 0; i < c.n; i++ {
			s := c.str(i)
			if s == "" || s == c.fallback {
				t.Errorf("%s(%d).String() = %q: missing name", c.enum, i, s)
				continue
			}
			if prev, dup := seen[s]; dup {
				t.Errorf("%s(%d).String() = %q duplicates value %d", c.enum, i, s, prev)
			}
			seen[s] = i
		}
		if got := c.str(c.n + 100); got != c.fallback {
			t.Errorf("%s out-of-range String() = %q, want fallback %q", c.enum, got, c.fallback)
		}
	}
}
