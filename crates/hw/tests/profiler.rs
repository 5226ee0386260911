//! Per-function cycle attribution through the trace stream: a
//! [`MetricsSink`] installed on the simulator charges every mutator
//! cycle to the item whose frame is active (`None` when no frame is).

use std::collections::BTreeMap;

use zarf_asm::{lower, parse};
use zarf_core::io::NullPorts;
use zarf_hw::Hw;
use zarf_trace::{MetricsSink, SharedSink};

const SRC: &str = r#"
fun cheap x =
  let r = add x 1 in
  result r
fun expensive x =
  let a = mul x x in
  let b = mul a a in
  let c = mul b b in
  let d = div c 7 in
  let e = mod d 1000 in
  result e
fun main =
  let a = cheap 1 in
  let b = expensive a in
  let c = add a b in
  result c
"#;

/// Install a metrics sink, run `body`, and return the per-item cycles.
fn item_cycles(hw: &mut Hw, body: impl FnOnce(&mut Hw)) -> BTreeMap<Option<u32>, u64> {
    let shared = SharedSink::new(MetricsSink::new());
    hw.set_sink(Box::new(shared.clone()));
    body(hw);
    hw.take_sink();
    shared.with(|m| m.item_cycles.clone())
}

fn cycles_of(hw: &Hw, cycles: &BTreeMap<Option<u32>, u64>, name: &str) -> u64 {
    let id = hw.id_of(name).expect("symbol retained");
    cycles.get(&Some(id)).copied().unwrap_or(0)
}

fn attributed(cycles: &BTreeMap<Option<u32>, u64>) -> u64 {
    cycles
        .iter()
        .filter(|(id, _)| id.is_some())
        .map(|(_, c)| c)
        .sum()
}

#[test]
fn item_cycles_rank_the_hot_function_above_the_cheap_one() {
    let machine = lower(&parse(SRC).unwrap()).unwrap();
    let mut hw = Hw::from_machine(&machine).unwrap();
    let cycles = item_cycles(&mut hw, |hw| {
        hw.run(&mut NullPorts).unwrap();
    });
    let (expensive, cheap) = (
        cycles_of(&hw, &cycles, "expensive"),
        cycles_of(&hw, &cycles, "cheap"),
    );
    assert!(expensive > cheap, "expensive {expensive} vs cheap {cheap}");
    assert!(cycles_of(&hw, &cycles, "main") > 0);
}

#[test]
fn icd_profile_is_dominated_by_the_filter_chain() {
    use zarf_hw::HValue;
    use zarf_icd::extract::icd_machine;
    let mut hw = Hw::from_machine(&icd_machine()).unwrap();
    let cycles = item_cycles(&mut hw, |hw| {
        let init = hw.id_of("init_state").unwrap();
        let step = hw.id_of("icd_step").unwrap();
        let mut state = hw.call(init, vec![], &mut NullPorts).unwrap();
        let slot = hw.push_root(state);
        for x in 0..200 {
            let pair = hw
                .call(
                    step,
                    vec![state, HValue::Int((x * 13) % 400 - 200)],
                    &mut NullPorts,
                )
                .unwrap();
            hw.set_root(slot, pair);
            let out = hw.con_field(pair, 1).unwrap();
            hw.deep_value(out, &mut NullPorts).unwrap();
            state = hw.con_field(hw.root(slot), 0).unwrap();
            hw.set_root(slot, state);
        }
    });
    let get = |name: &str| cycles_of(&hw, &cycles, name);
    // On a frame-dominated workload the attribution covers most cycles.
    assert!(attributed(&cycles) * 10 >= hw.stats().mutator_cycles() * 6);
    // The 32-tap high-pass shift is the widest per-sample work.
    assert!(get("hp_step") > get("dv_step"));
    assert!(get("hp_step") > get("sq_step"));
    assert!(get("mw_step") > 0 && get("lp_step") > 0 && get("det_step") > 0);
}

#[test]
fn item_cycles_attribute_most_mutator_cycles() {
    // Cycles are attributed to the active frame; only top-level forcing
    // between calls is unattributed, which must be a small remainder.
    let machine = lower(&parse(SRC).unwrap()).unwrap();
    let mut hw = Hw::from_machine(&machine).unwrap();
    let cycles = item_cycles(&mut hw, |hw| {
        hw.run(&mut NullPorts).unwrap();
    });
    let attributed = attributed(&cycles);
    let total = hw.stats().mutator_cycles();
    assert_eq!(cycles.values().sum::<u64>(), total);
    // A tiny program spends a visible share in frame-less top-level
    // forcing; it must still attribute a meaningful portion, and never
    // more than the whole.
    assert!(
        attributed * 10 >= total * 4,
        "only {attributed}/{total} cycles attributed"
    );
}
