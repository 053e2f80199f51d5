package main

import (
	"fmt"

	"protoquot/internal/spec"
)

// derivedPin is the engine's output for one family under deriveOptions:
// the converter's content hash (spec.Hash) and the state counts of its
// derivation. The small families agree with testdata/golden; the large ones
// were recorded from the same engine.
type derivedPin struct {
	hash                  string
	safety, final, remove int
}

var derivedPins = map[string]derivedPin{
	"chain(2)":     {"3b883c144ba8fc0b9c6cdc2327576387ddb3b2e841049f1cbcb5680e58dd448b", 9, 9, 0},
	"chain(3)":     {"928698b5f59dfbe0cd26767504cc8ec985cf615757ab0f6124dfe978a88b8c33", 9, 9, 0},
	"chaindrop(2)": {"3570ee061262a2a70ff3accab54f8c1dee551c2cf120d8a6e939e948b374bba9", 16, 9, 7},
	"chaindrop(3)": {"cef9973f4e3be57b3504b7fbcdfe034577bcd7bbbcbf0347eeb6a2ef6a2ed82a", 16, 9, 7},
	"ring(1)":      {"0ee81b2bb2f20ca3ad7b527940c985ff5a6d38f14909586d091e45c247680409", 6, 6, 0},
	"ring(2)":      {"9944f5e50343de341790c4b02d6edc8d125373e161e71f79ec6be322d38702b6", 36, 36, 0},
	"chaindrop(8)": {"b91ce2d1fd6ddd1c7afc1c948fd613eed6c5cd7de5e1ead6b70c87cddb1c160e", 16, 9, 7},
	"ring(6)":      {"6bd460fd05642efa5ce5361236e777c7cd7c5c651097bd32f762f3ce407cbd6d", 24640, 24640, 0},
}

func (p derivedPin) check(rep *childReport) error {
	if rep.Hash != p.hash || rep.SafetyStates != p.safety || rep.FinalStates != p.final || rep.RemovedStates != p.remove {
		return fmt.Errorf("converter %.12s with safety/final/removed states %d/%d/%d, pinned %.12s with %d/%d/%d",
			rep.Hash, rep.SafetyStates, rep.FinalStates, rep.RemovedStates, p.hash, p.safety, p.final, p.remove)
	}
	return nil
}

// prunedPins are the hashes of the pruned converters quotd serves (and the
// miss-path replay produces) per system.
var prunedPins = map[string]string{
	"chain(2)":     "2a67dd9847261e364f552b63f09c50609dbcfdd058d568cd9ef9688c63d749df",
	"chain(3)":     "1be38d64c09252ce8b7f98b3a9a35e694c067ed84bb2996b8ffdc0ba0078b5d8",
	"chaindrop(2)": "800b4b1ee7bf14c7b045e20f80674773b064f04e7da2a66fb7987e64e71ffd32",
	"chaindrop(3)": "57d40c635b936fe407f01e7b684f23d307207c1cdbfff78a63a04bdb48a33493",
	"ring(1)":      "081803d04b0c3fe6afafc7277e4179580aad043ddc3d574d0f660984f6ae7eba",
	"ring(2)":      "439641d98181b2b0ad50122d2b3acca0fc40bc5483a3e7ff9decd3f71ff5263e",
	"fig14":        "242c028da9f03779de02288699c1721a707e76f379b5ce8dd88dabcd2e100ea6",
}

func checkPruned(name string, conv *spec.Spec) error {
	if h := conv.Hash(); h != prunedPins[name] {
		return fmt.Errorf("pruned converter %.12s, pinned %.12s", h, prunedPins[name])
	}
	return nil
}
