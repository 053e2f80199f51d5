package api

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"protoquot/internal/dsl"
	"protoquot/internal/spec"
)

const svcText = `
spec S
init v0
ext v0 acc v1
ext v1 del v0
`

const envText = `
spec B
init b0
ext b0 acc b1
ext b1 fwd b2
ext b2 del b0
`

func mustParse(t *testing.T, text string) *spec.Spec {
	t.Helper()
	sp, err := dsl.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestCacheKeyExcludesNonSemanticOptions(t *testing.T) {
	a := mustParse(t, svcText)
	b := mustParse(t, envText)
	base := CacheKey(a, []*spec.Spec{b}, nil, DeriveOptions{})
	if len(base) != 64 {
		t.Fatalf("key should be hex sha256, got %q", base)
	}
	// Non-semantic knobs must not fragment the address.
	for name, o := range map[string]DeriveOptions{
		"timeout":  {TimeoutMS: 1234},
		"renderer": {IncludeDOT: true, IncludeGo: true, GoPackage: "x"},
	} {
		if k := CacheKey(a, []*spec.Spec{b}, nil, o); k != base {
			t.Errorf("%s changed the key", name)
		}
	}
	// Semantic knobs must.
	for name, o := range map[string]DeriveOptions{
		"omitvac":   {OmitVacuous: true},
		"safety":    {SafetyOnly: true},
		"maxstates": {MaxStates: 10},
		"minenv":    {MinimizeEnv: true},
		"prune":     {Prune: true},
		"minimize":  {Minimize: true},
	} {
		if k := CacheKey(a, []*spec.Spec{b}, nil, o); k == base {
			t.Errorf("%s did not change the key", name)
		}
	}
	// Roles are distinguished: B as env vs B as component.
	env := CacheKey(a, []*spec.Spec{b}, nil, DeriveOptions{})
	comp := CacheKey(a, nil, []*spec.Spec{b}, DeriveOptions{})
	if env == comp {
		t.Error("env and component roles share a key")
	}
}

func TestSpecErrorCarriesPosition(t *testing.T) {
	_, err := dsl.ParseString("spec X\ninit\n")
	if err == nil {
		t.Fatal("expected a parse error")
	}
	we := SpecError("envs[1]", err)
	if we.Code != ErrCodeBadSpec {
		t.Fatalf("code = %s, want bad_spec", we.Code)
	}
	if we.Role != "envs[1]" || we.Line != 2 {
		t.Errorf("position = %s:%d, want envs[1]:2", we.Role, we.Line)
	}
	data, _ := json.Marshal(we)
	for _, want := range []string{`"code":"bad_spec"`, `"role":"envs[1]"`, `"line":2`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("envelope %s missing %s", data, want)
		}
	}
	// Non-parse errors stay bad_request without a position.
	plain := SpecError("service", errPlain{})
	if plain.Code != ErrCodeBadRequest || plain.Line != 0 {
		t.Errorf("plain error mapped to %+v", plain)
	}
}

type errPlain struct{}

func (errPlain) Error() string { return "boom" }

func TestHTTPStatusMapping(t *testing.T) {
	cases := map[string]int{
		ErrCodeBadRequest:      http.StatusBadRequest,
		ErrCodeBadSpec:         http.StatusBadRequest,
		ErrCodeNotFound:        http.StatusNotFound,
		ErrCodeDeadline:        http.StatusGatewayTimeout,
		ErrCodeQueueFull:       http.StatusServiceUnavailable,
		ErrCodeCanceled:        http.StatusServiceUnavailable,
		ErrCodePeerUnavailable: http.StatusBadGateway,
		ErrCodeInternal:        http.StatusInternalServerError,
		"mystery":              http.StatusInternalServerError,
	}
	for code, want := range cases {
		if got := HTTPStatus(code); got != want {
			t.Errorf("HTTPStatus(%s) = %d, want %d", code, got, want)
		}
	}
}
