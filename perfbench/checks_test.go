package main

import "testing"

func TestResentRequestMustKeepItsCacheKey(t *testing.T) {
	a := &item{shape: 0}
	o := &op{items: []*item{a}}
	warm := opResult{op: o, items: []itemResult{{status: 200, key: "k1"}}}
	timed := opResult{op: o, items: []itemResult{{status: 200, key: "k2"}}}
	if _, err := checkCacheKeys([]opResult{warm, timed}); err == nil {
		t.Fatal("a resend answered under another cache key passed the check")
	}
	timed.items[0].key = "k1"
	if _, err := checkCacheKeys([]opResult{warm, timed}); err != nil {
		t.Fatalf("a resend under the same key failed: %v", err)
	}
}

func TestRelabelledShapeSplitIsCountedNotFailed(t *testing.T) {
	a, b := &item{shape: 3}, &item{shape: 3}
	res := []opResult{
		{op: &op{items: []*item{a}}, items: []itemResult{{status: 200, key: "k1"}}},
		{op: &op{items: []*item{b}}, items: []itemResult{{status: 200, key: "k2"}}},
	}
	split, err := checkCacheKeys(res)
	if err != nil || split != 1 {
		t.Fatalf("checkCacheKeys = %d, %v; want 1 split shape and no error", split, err)
	}
}
