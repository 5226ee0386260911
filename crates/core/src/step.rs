//! A small-step abstract machine for the named syntax.
//!
//! The paper presents the λ-execution layer at three levels: big-step
//! semantics (Figure 3, implemented in [`crate::eval`]), a small-step
//! operational semantics over an abstract environment, and the hardware
//! state machine (`zarf-hw`). This module is the middle layer: a CEK-style
//! machine whose [`Machine::step`] performs exactly one transition, using an
//! explicit continuation stack instead of host recursion.
//!
//! Uses include bounded execution (run N steps, inspect, resume), fair
//! interleaving of multiple programs, and — most importantly — serving as an
//! independent engine for the differential test suites: for every program,
//! `step` and `eval` must produce identical values and identical I/O traces.

use zarf_trace::{Engine, Event, SinkHandle, TraceSink};

use crate::ast::{Expr, Name, Pattern, Program};
use crate::env::Env;
use crate::error::{EvalError, RuntimeError};
use crate::io::IoPorts;
use crate::prim::PrimOp;
use crate::value::{ClosureTarget, Value, V};

/// A suspended continuation frame.
#[derive(Debug)]
enum Frame<'p> {
    /// A function call was made from `let var = … in body`; when the callee
    /// returns, bind `var` in `env` and continue with `body`.
    Bind { var: Name, body: &'p Expr, env: Env },
    /// An over-applied call: when the saturated prefix returns a value,
    /// apply it to the remaining arguments.
    ApplyRest { rest: Vec<V> },
}

/// The machine's control component.
#[derive(Debug)]
enum Control<'p> {
    /// Evaluate an expression in an environment.
    Eval { expr: &'p Expr, env: Env },
    /// Return a value to the top continuation frame.
    Return(V),
}

/// Result of a single [`Machine::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// More transitions remain.
    Running,
    /// The program reduced to a final value.
    Done(V),
}

/// A small-step CEK machine executing a borrowed [`Program`].
#[derive(Debug)]
pub struct Machine<'p> {
    program: &'p Program,
    control: Option<Control<'p>>,
    kont: Vec<Frame<'p>>,
    steps: u64,
    sink: SinkHandle,
}

impl<'p> Machine<'p> {
    /// A machine poised to evaluate `main`.
    pub fn new(program: &'p Program) -> Self {
        Machine {
            program,
            control: Some(Control::Eval {
                expr: &program.main().body,
                env: Env::new(),
            }),
            kont: Vec::new(),
            steps: 0,
            sink: SinkHandle::none(),
        }
    }

    /// A machine poised to evaluate an arbitrary function applied to values.
    pub fn call(program: &'p Program, function: &str, args: Vec<V>) -> Result<Self, EvalError> {
        let f = program
            .function(function)
            .ok_or_else(|| EvalError::UnknownGlobal(function.to_string()))?;
        if args.len() != f.arity() {
            // Model unsaturated entry as an immediate closure result.
            let clo = Value::closure(ClosureTarget::Fn(f.name.clone()), args);
            return Ok(Machine {
                program,
                control: Some(Control::Return(clo)),
                kont: Vec::new(),
                steps: 0,
                sink: SinkHandle::none(),
            });
        }
        Ok(Machine {
            program,
            control: Some(Control::Eval {
                expr: &f.body,
                env: Env::frame(&f.params, &args),
            }),
            kont: Vec::new(),
            steps: 0,
            sink: SinkHandle::none(),
        })
    }

    /// Install a trace sink; the machine emits [`Event::Bind`],
    /// [`Event::Dispatch`], and [`Event::Yield`] with [`Engine::Small`].
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink.set(sink);
    }

    /// Remove and return the installed sink, if any.
    pub fn take_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.sink.take()
    }

    #[cold]
    #[inline(never)]
    fn emit_bind(&mut self, var: &Name, v: &Value) {
        let (var, value) = (var.to_string(), v.to_string());
        self.sink.emit(|| Event::Bind {
            engine: Engine::Small,
            var,
            value,
        });
    }

    #[cold]
    #[inline(never)]
    fn emit_dispatch_lit(&mut self, scrutinee: &Value, n: crate::Int, hit: bool) {
        let scrutinee = scrutinee.to_string();
        let branch = if hit {
            format!("lit {n}")
        } else {
            "else".to_string()
        };
        self.sink.emit(|| Event::Dispatch {
            engine: Engine::Small,
            scrutinee,
            branch,
        });
    }

    #[cold]
    #[inline(never)]
    fn emit_dispatch_con(&mut self, scrutinee: &Value, name: &Name, hit: bool) {
        let scrutinee = scrutinee.to_string();
        let branch = if hit {
            format!("con {name}")
        } else {
            "else".to_string()
        };
        self.sink.emit(|| Event::Dispatch {
            engine: Engine::Small,
            scrutinee,
            branch,
        });
    }

    #[cold]
    #[inline(never)]
    fn emit_yield(&mut self, v: &Value) {
        let value = v.to_string();
        self.sink.emit(|| Event::Yield {
            engine: Engine::Small,
            value,
        });
    }

    /// Transitions taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Current continuation depth (Zarf call depth).
    pub fn depth(&self) -> usize {
        self.kont.len()
    }

    /// Perform one transition.
    pub fn step(&mut self, ports: &mut dyn IoPorts) -> Result<Status, EvalError> {
        let control = match self.control.take() {
            Some(c) => c,
            None => panic!("step called after Done"),
        };
        self.steps += 1;
        match control {
            Control::Eval { expr, env } => self.step_eval(expr, env, ports),
            Control::Return(v) if self.kont.is_empty() => Ok(Status::Done(v)),
            Control::Return(v) => self.step_return(v, ports),
        }
    }

    /// Run to completion with a transition budget.
    pub fn run(&mut self, ports: &mut dyn IoPorts, max_steps: u64) -> Result<V, EvalError> {
        for _ in 0..max_steps {
            if let Status::Done(v) = self.step(ports)? {
                return Ok(v);
            }
        }
        Err(EvalError::OutOfFuel)
    }

    fn finish(&mut self, v: V) -> Result<Status, EvalError> {
        if self.kont.is_empty() {
            Ok(Status::Done(v))
        } else {
            self.control = Some(Control::Return(v));
            Ok(Status::Running)
        }
    }

    fn step_eval(
        &mut self,
        expr: &'p Expr,
        mut env: Env,
        ports: &mut dyn IoPorts,
    ) -> Result<Status, EvalError> {
        match expr {
            Expr::Result(arg) => {
                let v = env.resolve(arg)?;
                if self.sink.enabled() {
                    self.emit_yield(&v);
                }
                self.finish(v)
            }
            Expr::Let {
                var,
                callee,
                args,
                body,
            } => {
                let argv = args
                    .iter()
                    .map(|a| env.resolve(a))
                    .collect::<Result<Vec<_>, _>>()?;
                let target = match callee {
                    crate::ast::Callee::Var(x) => env.lookup(x)?,
                    crate::ast::Callee::Fn(n) => {
                        Value::closure(ClosureTarget::Fn(n.clone()), vec![])
                    }
                    crate::ast::Callee::Con(n) => {
                        Value::closure(ClosureTarget::Con(n.clone()), vec![])
                    }
                    crate::ast::Callee::Prim(p) => Value::closure(ClosureTarget::Prim(*p), vec![]),
                };
                match self.apply(target, argv, ports)? {
                    Applied::Value(v) => {
                        if self.sink.enabled() {
                            self.emit_bind(var, &v);
                        }
                        env.bind(var.clone(), v);
                        self.control = Some(Control::Eval { expr: body, env });
                        Ok(Status::Running)
                    }
                    Applied::Call {
                        body: fbody,
                        frame,
                        rest,
                    } => {
                        self.kont.push(Frame::Bind {
                            var: var.clone(),
                            body,
                            env,
                        });
                        if !rest.is_empty() {
                            self.kont.push(Frame::ApplyRest { rest });
                        }
                        self.control = Some(Control::Eval {
                            expr: fbody,
                            env: frame,
                        });
                        Ok(Status::Running)
                    }
                }
            }
            Expr::Case {
                scrutinee,
                branches,
                default,
            } => {
                let v = env.resolve(scrutinee)?;
                match &*v {
                    Value::Int(n) => {
                        let hit = branches.iter().find(|b| b.pattern == Pattern::Lit(*n));
                        if self.sink.enabled() {
                            self.emit_dispatch_lit(&v, *n, hit.is_some());
                        }
                        let body = hit.map(|b| &b.body).unwrap_or(default);
                        self.control = Some(Control::Eval { expr: body, env });
                        Ok(Status::Running)
                    }
                    Value::Con { name, fields } => {
                        let hit = branches.iter().find_map(|b| match &b.pattern {
                            Pattern::Con(cn, vars) if cn == name => Some((vars, &b.body)),
                            _ => None,
                        });
                        if self.sink.enabled() {
                            self.emit_dispatch_con(&v, name, hit.is_some());
                        }
                        match hit {
                            Some((vars, body)) => {
                                env.bind_all(vars, fields);
                                self.control = Some(Control::Eval { expr: body, env });
                            }
                            None => {
                                self.control = Some(Control::Eval { expr: default, env });
                            }
                        }
                        Ok(Status::Running)
                    }
                    Value::Closure { .. } => self.finish(Value::error(RuntimeError::CaseOnClosure)),
                    Value::Error(_) => self.finish(v),
                }
            }
        }
    }

    fn step_return(&mut self, v: V, ports: &mut dyn IoPorts) -> Result<Status, EvalError> {
        match self.kont.pop().expect("Return with empty continuation") {
            Frame::Bind { var, body, mut env } => {
                if self.sink.enabled() {
                    self.emit_bind(&var, &v);
                }
                env.bind(var, v);
                self.control = Some(Control::Eval { expr: body, env });
                Ok(Status::Running)
            }
            Frame::ApplyRest { rest } => match self.apply(v, rest, ports)? {
                Applied::Value(v) => self.finish(v),
                Applied::Call { body, frame, rest } => {
                    if !rest.is_empty() {
                        self.kont.push(Frame::ApplyRest { rest });
                    }
                    self.control = Some(Control::Eval {
                        expr: body,
                        env: frame,
                    });
                    Ok(Status::Running)
                }
            },
        }
    }

    /// Apply `target` to `args` as far as possible without evaluating a
    /// user-function body; a required body evaluation is returned as
    /// [`Applied::Call`] so it becomes machine transitions.
    fn apply(
        &mut self,
        mut target: V,
        mut args: Vec<V>,
        ports: &mut dyn IoPorts,
    ) -> Result<Applied<'p>, EvalError> {
        loop {
            let (ctarget, applied) = match &*target {
                Value::Closure { target, applied } => (target.clone(), applied.clone()),
                Value::Error(_) => return Ok(Applied::Value(target)),
                Value::Int(_) => {
                    return Ok(Applied::Value(if args.is_empty() {
                        target
                    } else {
                        Value::error(RuntimeError::ApplyToInt)
                    }))
                }
                Value::Con { .. } => {
                    return Ok(Applied::Value(if args.is_empty() {
                        target
                    } else {
                        Value::error(RuntimeError::ApplyToCon)
                    }))
                }
            };

            let arity = match &ctarget {
                ClosureTarget::Fn(n) => self
                    .program
                    .function(n)
                    .ok_or_else(|| EvalError::UnknownGlobal(n.to_string()))?
                    .arity(),
                ClosureTarget::Con(n) => self
                    .program
                    .constructor(n)
                    .ok_or_else(|| EvalError::UnknownGlobal(n.to_string()))?
                    .arity(),
                ClosureTarget::Prim(p) => p.arity(),
            };

            if applied.len() + args.len() < arity {
                let mut all = applied;
                all.extend(args);
                return Ok(Applied::Value(Value::closure(ctarget, all)));
            }

            let need = arity - applied.len();
            let rest = args.split_off(need);
            let mut sat = applied;
            sat.append(&mut args);

            match &ctarget {
                ClosureTarget::Fn(n) => {
                    let f = self.program.function(n).expect("checked above");
                    return Ok(Applied::Call {
                        body: &f.body,
                        frame: Env::frame(&f.params, &sat),
                        rest,
                    });
                }
                ClosureTarget::Con(n) => {
                    let c = self.program.constructor(n).expect("checked above");
                    let v = Value::con(c.name.clone(), sat);
                    if rest.is_empty() {
                        return Ok(Applied::Value(v));
                    }
                    target = v;
                    args = rest;
                }
                ClosureTarget::Prim(p) => {
                    let v = invoke_prim(*p, &sat, ports)?;
                    if rest.is_empty() {
                        return Ok(Applied::Value(v));
                    }
                    target = v;
                    args = rest;
                }
            }
        }
    }
}

/// Outcome of [`Machine::apply`].
enum Applied<'p> {
    /// The application finished without entering a function body.
    Value(V),
    /// A saturated user-function call: evaluate `body` in `frame`, then
    /// apply the result to `rest` if non-empty.
    Call {
        body: &'p Expr,
        frame: Env,
        rest: Vec<V>,
    },
}

/// Saturated primitive invocation shared with nothing — mirrors
/// `Evaluator::invoke_prim` and must stay behaviourally identical to it.
fn invoke_prim(op: PrimOp, args: &[V], ports: &mut dyn IoPorts) -> Result<V, EvalError> {
    let mut ints = Vec::with_capacity(args.len());
    for a in args {
        match &**a {
            Value::Int(n) => ints.push(*n),
            Value::Error(_) => return Ok(a.clone()),
            _ => return Ok(Value::error(RuntimeError::PrimOnNonInt)),
        }
    }
    match op {
        PrimOp::GetInt => Ok(Value::int(ports.getint(ints[0])?)),
        PrimOp::PutInt => Ok(Value::int(ports.putint(ints[0], ints[1])?)),
        PrimOp::Gc => Ok(Value::int(0)),
        _ => Ok(match op.eval_pure(&ints) {
            Ok(n) => Value::int(n),
            Err(e) => Value::error(e),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ConDecl, Decl, FunDecl};
    use crate::builder::{lit, seq, var};
    use crate::eval::Evaluator;
    use crate::io::{NullPorts, VecPorts};

    fn run_small(p: &Program) -> V {
        Machine::new(p).run(&mut NullPorts, 1_000_000).unwrap()
    }

    fn run_big(p: &Program) -> V {
        Evaluator::new(p).run(&mut NullPorts).unwrap()
    }

    #[test]
    fn simple_arith_agrees_with_bigstep() {
        let p = Program::new(vec![Decl::main(
            seq()
                .prim("a", "add", [lit(3), lit(4)])
                .prim("b", "mul", [var("a"), lit(6)])
                .result(var("b")),
        )])
        .unwrap();
        assert_eq!(run_small(&p), run_big(&p));
        assert_eq!(run_small(&p).as_int(), Some(42));
    }

    #[test]
    fn recursion_uses_continuation_stack_not_host_stack() {
        // count n = case n of 0 => 0 else count (n-1); main = count 50_000
        let count = Decl::Fun(FunDecl::new(
            "count",
            &["n"],
            seq().case(var("n")).lit(0, seq().result(lit(0))).default(
                seq()
                    .prim("m", "sub", [var("n"), lit(1)])
                    .call("r", "count", [var("m")])
                    .result(var("r")),
            ),
        ));
        let p = Program::new(vec![
            count,
            Decl::main(seq().call("r", "count", [lit(50_000)]).result(var("r"))),
        ])
        .unwrap();
        let v = Machine::new(&p).run(&mut NullPorts, 10_000_000).unwrap();
        assert_eq!(v.as_int(), Some(0));
    }

    #[test]
    fn io_trace_matches_bigstep() {
        let body = seq()
            .prim("a", "getint", [lit(0)])
            .prim("b", "getint", [lit(0)])
            .prim("s", "add", [var("a"), var("b")])
            .prim("o", "putint", [lit(1), var("s")])
            .result(var("o"));
        let p = Program::new(vec![Decl::main(body)]).unwrap();

        let mut ports1 = VecPorts::new();
        ports1.push_input(0, [10, 32]);
        let v1 = Machine::new(&p).run(&mut ports1, 100_000).unwrap();

        let mut ports2 = VecPorts::new();
        ports2.push_input(0, [10, 32]);
        let v2 = Evaluator::new(&p).run(&mut ports2).unwrap();

        assert_eq!(v1, v2);
        assert_eq!(ports1.output(1), ports2.output(1));
        assert_eq!(ports1.output(1), &[42]);
    }

    #[test]
    fn over_application_in_small_step() {
        let f = Decl::Fun(FunDecl::new(
            "addclo",
            &["x"],
            seq().prim("c", "add", [var("x")]).result(var("c")),
        ));
        let p = Program::new(vec![
            f,
            Decl::main(
                seq()
                    .call("r", "addclo", [lit(40), lit(2)])
                    .result(var("r")),
            ),
        ])
        .unwrap();
        assert_eq!(run_small(&p).as_int(), Some(42));
    }

    #[test]
    fn constructor_case_dispatch() {
        let p = Program::new(vec![
            Decl::Con(ConDecl::new("Nil", &[] as &[&str])),
            Decl::Con(ConDecl::new("Cons", &["h", "t"])),
            Decl::main(
                seq()
                    .con("nil", "Nil", [])
                    .con("l", "Cons", [lit(7), var("nil")])
                    .case(var("l"))
                    .con("Cons", &["h", "t"], seq().result(var("h")))
                    .default(seq().result(lit(-1))),
            ),
        ])
        .unwrap();
        assert_eq!(run_small(&p).as_int(), Some(7));
    }

    #[test]
    fn else_branch_on_unmatched_constructor() {
        let p = Program::new(vec![
            Decl::Con(ConDecl::new("A", &[] as &[&str])),
            Decl::Con(ConDecl::new("B", &[] as &[&str])),
            Decl::main(
                seq()
                    .con("a", "A", [])
                    .case(var("a"))
                    .con("B", &[] as &[&str], seq().result(lit(1)))
                    .default(seq().result(lit(2))),
            ),
        ])
        .unwrap();
        assert_eq!(run_small(&p).as_int(), Some(2));
    }

    #[test]
    fn step_budget_is_enforced() {
        let looping = Decl::Fun(FunDecl::new(
            "f",
            &[] as &[&str],
            seq().call("x", "f", []).result(var("x")),
        ));
        let p = Program::new(vec![
            looping,
            Decl::main(seq().call("x", "f", []).result(var("x"))),
        ])
        .unwrap();
        let err = Machine::new(&p).run(&mut NullPorts, 1000).unwrap_err();
        assert_eq!(err, EvalError::OutOfFuel);
    }

    #[test]
    fn call_constructor_entry() {
        let double = Decl::Fun(FunDecl::new(
            "double",
            &["n"],
            seq().prim("m", "mul", [var("n"), lit(2)]).result(var("m")),
        ));
        let p = Program::new(vec![double, Decl::main(seq().result(lit(0)))]).unwrap();
        let mut m = Machine::call(&p, "double", vec![Value::int(4)]).unwrap();
        let v = m.run(&mut NullPorts, 1000).unwrap();
        assert_eq!(v.as_int(), Some(8));
        assert!(m.steps() > 0);
    }

    #[test]
    fn unsaturated_call_entry_returns_closure() {
        let add2 = Decl::Fun(FunDecl::new(
            "add2",
            &["a", "b"],
            seq()
                .prim("s", "add", [var("a"), var("b")])
                .result(var("s")),
        ));
        let p = Program::new(vec![add2, Decl::main(seq().result(lit(0)))]).unwrap();
        let mut m = Machine::call(&p, "add2", vec![Value::int(1)]).unwrap();
        let v = m.run(&mut NullPorts, 10).unwrap();
        assert!(matches!(&*v, Value::Closure { applied, .. } if applied.len() == 1));
    }
}
