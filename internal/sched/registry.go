package sched

import (
	"fmt"
	"sort"
	"strings"
)

// policyBuilders is the string-keyed catalog of scheduling policies. Keys are
// canonical names; lookup is case-insensitive and ignores dashes, so
// "easy-bf", "EASY-BF", and "easybf" all resolve to the same policy.
var policyBuilders = map[string]func() Policy{
	"fcfs":      FCFS,
	"greedy-bf": GreedyBackfill,
	"easy-bf":   EASYBackfill,
	"sjf":       SJF,
	"ljf":       LJF,
	"wfp":       WFP,
	"fairshare": FairShare,
	"random":    RandomOrder,
}

// normalizePolicyName maps the accepted spellings of a policy name to its
// lookup key: lower-cased with dashes removed.
func normalizePolicyName(name string) string {
	return strings.ReplaceAll(strings.ToLower(name), "-", "")
}

// policyByKey indexes the builders by normalized canonical name and by the
// normalized Policy.Name() each one reports, so both the registry spelling
// ("greedy-bf") and the report spelling ("GreedyBF") resolve.
var policyByKey = func() map[string]func() Policy {
	m := make(map[string]func() Policy, 2*len(policyBuilders))
	for name, build := range policyBuilders {
		m[normalizePolicyName(name)] = build
		m[normalizePolicyName(build().Name())] = build
	}
	return m
}()

// PolicyByName returns a fresh instance of the named scheduling policy. The
// error for an unknown name lists the known catalog.
func PolicyByName(name string) (Policy, error) {
	if build, ok := policyByKey[normalizePolicyName(name)]; ok {
		return build(), nil
	}
	return nil, fmt.Errorf("sched: unknown policy %q (known: %s)", name, strings.Join(PolicyNames(), ", "))
}

// PolicyNames returns the canonical policy names in sorted order.
func PolicyNames() []string {
	out := make([]string, 0, len(policyBuilders))
	for name := range policyBuilders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
