package compose

// AssertLazyMatchesMany exposes the composition comparison to the external
// test package, which may import the packages that build the paper's
// systems (they import compose).
var AssertLazyMatchesMany = assertLazyMatchesMany
