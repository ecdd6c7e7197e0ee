package serve

import "testing"

// TestHubBuildsPayloadOnlyForSubscribers pins the lazy event payload:
// rounds nobody listens to build nothing, yet still number their
// events, so a subscriber that joins after k silent rounds sees id k+1.
func TestHubBuildsPayloadOnlyForSubscribers(t *testing.T) {
	h := newHub(nil)
	built := 0
	payload := func() any {
		built++
		return map[string]int{"round": built}
	}
	const k = 3
	for i := 0; i < k; i++ {
		h.publish("analysis", payload)
	}
	if built != 0 {
		t.Fatalf("%d payloads built with no subscriber, want 0", built)
	}
	ch, cancel := h.subscribe()
	defer cancel()
	h.publish("analysis", payload)
	if built != 1 {
		t.Fatalf("%d payloads built for one subscribed round, want 1", built)
	}
	e := <-ch
	if e.id != k+1 || e.name != "analysis" || string(e.data) != `{"round":1}` {
		t.Errorf("first event = id %d %q %s, want id %d \"analysis\" {\"round\":1}", e.id, e.name, e.data, k+1)
	}
}
