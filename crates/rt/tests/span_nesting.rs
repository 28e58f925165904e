//! Span parentage across the runtime's thread boundaries: workers spawned
//! by the combinators must nest under the span that was open at the call
//! site, and their events must be flushed before the scope joins.

use receivers_obs as obs;
use receivers_rt as rt;

#[test]
fn worker_spans_nest_under_the_calling_span() {
    obs::set_enabled(true, false);
    obs::reset_spans();

    let items: Vec<u64> = (0..256).collect();
    let root_id;
    {
        let _root = obs::span("caller");
        root_id = obs::current_span();
        assert_ne!(root_id, 0);
        let hit = rt::par_find_map_first(&items, |&x| (x == 200).then_some(x));
        assert_eq!(hit, Some(200));
        let (a, b) = rt::par_join(|| items.len(), || items.iter().sum::<u64>());
        assert_eq!((a, b), (256, 255 * 256 / 2));
    }
    let events = obs::take_spans();
    obs::set_enabled(false, false);

    let caller = events
        .iter()
        .find(|e| e.name == "caller")
        .expect("caller span recorded");
    let workers: Vec<_> = events.iter().filter(|e| e.name == "rt.worker").collect();
    if rt::num_threads() > 1 {
        assert!(!workers.is_empty(), "parallel run spawned no worker spans");
    }
    for w in &workers {
        assert_eq!(
            w.parent, caller.id,
            "worker span must parent under the span open at the spawn site"
        );
        // Worker events carry their own thread ids; at least the span
        // tree must reconstruct across the boundary.
        assert_ne!(w.id, caller.id);
    }
    // Everything flushed: a second drain is empty.
    assert_eq!(obs::take_spans(), Vec::new());
}
