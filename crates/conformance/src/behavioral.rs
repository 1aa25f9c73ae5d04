//! Implicit *behavioral* type conformance — the paper's Section 4.1
//! extension.
//!
//! "The implicit behavioral type conformance is based on the behavior of
//! the type, i.e., based on the result of its methods. … these methods
//! must also be executed in order to compare their results for
//! corresponding inputs. That should be feasible for types dealing only
//! with primitive types but for more complex types it is rather tricky."
//!
//! This module implements exactly that feasible fragment: given two types
//! whose *structure* already conforms (a [`ConformanceBinding`] exists),
//! a [`BehavioralTester`] executes the bound method pairs on freshly
//! constructed instances with seeded pseudo-random **primitive** inputs
//! and compares outputs — first method-by-method on fresh receivers, then
//! as a randomized call *sequence* against one receiver pair (catching
//! setter/getter interactions). Methods touching non-primitive types are
//! reported as skipped, as the paper anticipates.
//!
//! Combining a structural pass with a behavioral pass yields the paper's
//! "strong implicit type conformance".

use pti_metamodel::{MetamodelError, ObjHandle, Runtime, TypeDef, TypeName, Value};

use crate::binding::{ConformanceBinding, MethodBinding};

/// A deterministic SplitMix64 generator — enough randomness for probe
/// inputs without pulling a dependency into the rule crate.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Outcome of probing one bound method pair.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodVerdict {
    /// Method name on the expected type.
    pub expected_name: String,
    /// Method name on the received type.
    pub actual_name: String,
    /// Number of probes executed.
    pub probes: usize,
    /// Probes on which both implementations agreed.
    pub agreements: usize,
    /// A bounded sample of disagreements: (arguments, expected-side
    /// output, received-side output). Outputs are rendered to strings so
    /// the report is self-contained.
    pub disagreements: Vec<(Vec<Value>, String, String)>,
}

impl MethodVerdict {
    /// Whether every probe agreed.
    pub fn agrees(&self) -> bool {
        self.agreements == self.probes
    }
}

/// The full behavioral comparison report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BehavioralReport {
    /// Per-method probe verdicts.
    pub methods: Vec<MethodVerdict>,
    /// Bound methods that could not be probed (non-primitive parameter
    /// or return types), by expected name.
    pub skipped: Vec<String>,
    /// Disagreements found by the randomized call-sequence pass, rendered
    /// as `(step, method, detail)`.
    pub sequence_disagreements: Vec<(usize, String, String)>,
    /// Steps executed in the sequence pass.
    pub sequence_steps: usize,
}

impl BehavioralReport {
    /// The paper's behavioral conformance verdict: every probed method
    /// and every sequence step agreed. Skipped methods do not fail the
    /// verdict (they are outside the feasible fragment) but are listed.
    pub fn conformant(&self) -> bool {
        self.methods.iter().all(MethodVerdict::agrees) && self.sequence_disagreements.is_empty()
    }
}

/// Configuration and driver for behavioral probing.
#[derive(Debug, Clone)]
pub struct BehavioralTester {
    /// Probes per bound method (fresh receivers each probe).
    pub probes_per_method: usize,
    /// Steps in the randomized call-sequence pass (0 disables it).
    pub sequence_steps: usize,
    /// Seed for input generation (probes are deterministic per seed).
    pub seed: u64,
    /// Cap on recorded disagreements per method.
    pub max_recorded: usize,
}

impl Default for BehavioralTester {
    fn default() -> Self {
        BehavioralTester {
            probes_per_method: 16,
            sequence_steps: 64,
            seed: 0x9D1C_E2F1,
            max_recorded: 4,
        }
    }
}

fn primitive_probe(rng: &mut SplitMix64, ty: &TypeName) -> Option<Value> {
    use pti_metamodel::primitives as prim;
    Some(match ty.full() {
        prim::BOOL => Value::Bool(rng.below(2) == 1),
        prim::INT32 => Value::I32((rng.next() as i32) % 1000),
        prim::INT64 => Value::I64((rng.next() as i64) % 100_000),
        prim::FLOAT64 => Value::F64((rng.below(1_000_000) as f64) / 128.0),
        prim::STRING => {
            let len = rng.below(12) as usize;
            let s: String = (0..len)
                .map(|_| char::from(b'a' + (rng.below(26) as u8)))
                .collect();
            Value::Str(s)
        }
        _ => return None,
    })
}

/// Whether a method is within the feasible fragment: all parameters and
/// the return type are primitives (or `Void` return).
fn probeable(def: &TypeDef, binding_name: &str, arity: usize) -> Option<bool> {
    use pti_metamodel::primitives as prim;
    let (_, sig) = def.find_method(binding_name, arity)?;
    let params_ok = sig.params.iter().all(|p| prim::is_primitive(&p.ty));
    let ret_ok = prim::is_primitive(&sig.return_type) || sig.return_type.full() == prim::VOID;
    Some(params_ok && ret_ok)
}

impl BehavioralTester {
    /// Probes the behavior of `received` against `expected` through the
    /// structural `binding`. Both types (and their method bodies) must be
    /// installed in `rt`.
    ///
    /// # Errors
    /// Construction failures (no usable constructor) or runtime errors
    /// *outside* method execution. A method body raising an error is not
    /// an error here: the pair of outcomes is compared like any result
    /// (both failing identically counts as agreement).
    pub fn test(
        &self,
        rt: &mut Runtime,
        received: &TypeDef,
        expected: &TypeDef,
        binding: &ConformanceBinding,
    ) -> Result<BehavioralReport, MetamodelError> {
        let mut report = BehavioralReport::default();
        let mut rng = SplitMix64(self.seed);

        // Pass 1: per-method probes on fresh receiver pairs.
        for mb in &binding.methods {
            let arity = mb.perm.len();
            let exp_ok = probeable(expected, &mb.expected_name, arity);
            let act_ok = probeable(received, &mb.actual_name, arity);
            if exp_ok != Some(true) || act_ok != Some(true) {
                report.skipped.push(mb.expected_name.clone());
                continue;
            }
            let sig_params: Vec<TypeName> = expected
                .find_method(&mb.expected_name, arity)
                .expect("probeable checked")
                .1
                .params
                .iter()
                .map(|p| p.ty.clone())
                .collect();
            let mut verdict = MethodVerdict {
                expected_name: mb.expected_name.clone(),
                actual_name: mb.actual_name.clone(),
                probes: self.probes_per_method,
                agreements: 0,
                disagreements: Vec::new(),
            };
            for _ in 0..self.probes_per_method {
                let args: Option<Vec<Value>> = sig_params
                    .iter()
                    .map(|t| primitive_probe(&mut rng, t))
                    .collect();
                let args = args.expect("probeable params are primitive");
                let eh = fresh_instance(rt, expected)?;
                let ah = fresh_instance(rt, received)?;
                let out_e = rt.invoke(eh, &mb.expected_name, &args);
                let out_a = rt.invoke(ah, &mb.actual_name, &mb.reorder(&args));
                if outcome_eq(&out_e, &out_a) {
                    verdict.agreements += 1;
                } else if verdict.disagreements.len() < self.max_recorded {
                    verdict
                        .disagreements
                        .push((args, render(&out_e), render(&out_a)));
                }
                let _ = rt.heap.free(eh);
                let _ = rt.heap.free(ah);
            }
            report.methods.push(verdict);
        }

        // Pass 2: one receiver pair, randomized call sequence over the
        // probeable bound methods (catches stateful interactions like
        // set-then-get).
        let seq_methods: Vec<&MethodBinding> = binding
            .methods
            .iter()
            .filter(|mb| {
                probeable(expected, &mb.expected_name, mb.perm.len()) == Some(true)
                    && probeable(received, &mb.actual_name, mb.perm.len()) == Some(true)
            })
            .collect();
        if !seq_methods.is_empty() && self.sequence_steps > 0 {
            let eh = fresh_instance(rt, expected)?;
            let ah = fresh_instance(rt, received)?;
            for step in 0..self.sequence_steps {
                let mb = seq_methods[rng.below(seq_methods.len() as u64) as usize];
                let sig_params: Vec<TypeName> = expected
                    .find_method(&mb.expected_name, mb.perm.len())
                    .expect("filtered")
                    .1
                    .params
                    .iter()
                    .map(|p| p.ty.clone())
                    .collect();
                let args: Vec<Value> = sig_params
                    .iter()
                    .map(|t| primitive_probe(&mut rng, t).expect("primitive"))
                    .collect();
                let out_e = rt.invoke(eh, &mb.expected_name, &args);
                let out_a = rt.invoke(ah, &mb.actual_name, &mb.reorder(&args));
                report.sequence_steps = step + 1;
                if !outcome_eq(&out_e, &out_a) {
                    report.sequence_disagreements.push((
                        step,
                        mb.expected_name.clone(),
                        format!("{} vs {}", render(&out_e), render(&out_a)),
                    ));
                    if report.sequence_disagreements.len() >= self.max_recorded {
                        break;
                    }
                }
            }
            let _ = rt.heap.free(eh);
            let _ = rt.heap.free(ah);
        }

        Ok(report)
    }
}

fn fresh_instance(rt: &mut Runtime, def: &TypeDef) -> Result<ObjHandle, MetamodelError> {
    if def.find_ctor(0).is_some() && def.is_instantiable() {
        rt.instantiate_def(def, &[])
    } else {
        rt.allocate_raw(def)
    }
}

fn outcome_eq(a: &Result<Value, MetamodelError>, b: &Result<Value, MetamodelError>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x == y,
        (Err(_), Err(_)) => true, // both fail: identical observable behavior
        _ => false,
    }
}

fn render(r: &Result<Value, MetamodelError>) -> String {
    match r {
        Ok(v) => v.to_string(),
        Err(e) => format!("error: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConformanceChecker, ConformanceConfig};
    use pti_metamodel::{bodies, primitives, Assembly, ParamDef, TypeDescription};
    use std::sync::Arc;

    /// Two "Adder" types with renamed methods; `faithful` controls whether
    /// vendor B's add actually adds or sneakily subtracts.
    fn adders(faithful: bool) -> (Runtime, TypeDef, TypeDef, ConformanceBinding) {
        let expected = TypeDef::class("Adder", "vendor-a")
            .field("acc", primitives::INT64)
            .method(
                "add",
                vec![ParamDef::new("x", primitives::INT64)],
                primitives::INT64,
            )
            .method("total", vec![], primitives::INT64)
            .ctor(vec![])
            .build();
        let received = TypeDef::class("Adder", "vendor-b")
            .field("acc", primitives::INT64)
            .method(
                "addValue",
                vec![ParamDef::new("x", primitives::INT64)],
                primitives::INT64,
            )
            .method("totalValue", vec![], primitives::INT64)
            .ctor(vec![])
            .build();
        let (eg, rg) = (expected.guid, received.guid);
        let mut rt = Runtime::new();
        let add = |sign: i64| -> pti_metamodel::NativeFn {
            Arc::new(move |rt: &mut Runtime, recv: Value, args: &[Value]| {
                let h = recv.as_obj()?;
                let acc = rt.get_field(h, "acc")?.as_i64()? + sign * args[0].as_i64()?;
                rt.set_field(h, "acc", Value::I64(acc))?;
                Ok(Value::I64(acc))
            })
        };
        Assembly::builder("a")
            .ty(expected.clone())
            .body(eg, "add", 1, add(1))
            .body(eg, "total", 0, bodies::getter("acc"))
            .ctor_body(eg, 0, bodies::ctor_assign(&[]))
            .build()
            .install(&mut rt)
            .unwrap();
        Assembly::builder("b")
            .ty(received.clone())
            .body(rg, "addValue", 1, add(if faithful { 1 } else { -1 }))
            .body(rg, "totalValue", 0, bodies::getter("acc"))
            .ctor_body(rg, 0, bodies::ctor_assign(&[]))
            .build()
            .install(&mut rt)
            .unwrap();
        let checker = ConformanceChecker::new(ConformanceConfig::pragmatic());
        let conf = checker
            .check(
                &TypeDescription::from_def(&received),
                &TypeDescription::from_def(&expected),
                &rt.registry,
                &rt.registry,
            )
            .expect("structurally conformant");
        let binding = conf.binding(&TypeDescription::from_def(&expected));
        (rt, received, expected, ConformanceBinding::clone(&binding))
    }

    #[test]
    fn faithful_implementation_passes() {
        let (mut rt, received, expected, binding) = adders(true);
        let report = BehavioralTester::default()
            .test(&mut rt, &received, &expected, &binding)
            .unwrap();
        assert!(report.conformant(), "{report:?}");
        assert_eq!(report.methods.len(), 2);
        assert!(report.skipped.is_empty());
        assert!(report.sequence_steps > 0);
    }

    #[test]
    fn divergent_implementation_fails_with_witnesses() {
        let (mut rt, received, expected, binding) = adders(false);
        let report = BehavioralTester::default()
            .test(&mut rt, &received, &expected, &binding)
            .unwrap();
        assert!(!report.conformant());
        let add = report
            .methods
            .iter()
            .find(|m| m.expected_name == "add")
            .unwrap();
        assert!(!add.agrees());
        assert!(!add.disagreements.is_empty(), "witness inputs recorded");
        // The pure getter agrees per-probe (fresh receivers)…
        let total = report
            .methods
            .iter()
            .find(|m| m.expected_name == "total")
            .unwrap();
        assert!(total.agrees());
        // …but the sequence pass exposes the divergent accumulated state.
        assert!(!report.sequence_disagreements.is_empty());
    }

    #[test]
    fn probing_is_deterministic_per_seed() {
        let (mut rt, received, expected, binding) = adders(false);
        let t = BehavioralTester {
            seed: 7,
            ..BehavioralTester::default()
        };
        let r1 = t.test(&mut rt, &received, &expected, &binding).unwrap();
        let r2 = t.test(&mut rt, &received, &expected, &binding).unwrap();
        assert_eq!(r1, r2);
        let t2 = BehavioralTester {
            seed: 8,
            ..BehavioralTester::default()
        };
        let r3 = t2.test(&mut rt, &received, &expected, &binding).unwrap();
        // Same verdict, (very likely) different witnesses.
        assert_eq!(r1.conformant(), r3.conformant());
    }

    #[test]
    fn non_primitive_methods_are_skipped() {
        let expected = TypeDef::class("Box", "a")
            .method("wrap", vec![ParamDef::new("x", "Widget")], "Widget")
            .method("tag", vec![], primitives::STRING)
            .ctor(vec![])
            .build();
        let received = TypeDef::class("Box", "b")
            .method("wrap", vec![ParamDef::new("x", "Widget")], "Widget")
            .method("tag", vec![], primitives::STRING)
            .ctor(vec![])
            .build();
        let (eg, rg) = (expected.guid, received.guid);
        let mut rt = Runtime::new();
        for (def, g) in [(&expected, eg), (&received, rg)] {
            Assembly::builder(format!("box-{g}"))
                .ty(def.clone())
                .body(g, "wrap", 1, bodies::constant(Value::Null))
                .body(g, "tag", 0, bodies::constant(Value::from("t")))
                .ctor_body(g, 0, bodies::ctor_assign(&[]))
                .build()
                .install(&mut rt)
                .unwrap();
        }
        let binding = ConformanceBinding::identity(&TypeDescription::from_def(&expected));
        let report = BehavioralTester::default()
            .test(&mut rt, &received, &expected, &binding)
            .unwrap();
        assert_eq!(report.skipped, vec!["wrap".to_string()]);
        assert_eq!(report.methods.len(), 1, "only `tag` is probeable");
        assert!(report.conformant(), "skips do not fail the verdict");
    }

    #[test]
    fn matching_error_behavior_counts_as_agreement() {
        // Both implementations declare a method with no body installed:
        // both invocations fail, which is identical observable behavior.
        let expected = TypeDef::class("E", "a")
            .method("boom", vec![], primitives::INT32)
            .ctor(vec![])
            .build();
        let received = TypeDef::class("E", "b")
            .method("boom", vec![], primitives::INT32)
            .ctor(vec![])
            .build();
        let mut rt = Runtime::new();
        rt.register_type(expected.clone()).unwrap();
        rt.register_type(received.clone()).unwrap();
        let binding = ConformanceBinding::identity(&TypeDescription::from_def(&expected));
        let report = BehavioralTester {
            sequence_steps: 4,
            ..Default::default()
        }
        .test(&mut rt, &received, &expected, &binding)
        .unwrap();
        assert!(report.conformant(), "{report:?}");
    }
}
