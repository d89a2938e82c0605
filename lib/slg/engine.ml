open Xsb_term
open Xsb_db

type t = { database : Database.t; env : Machine.env; mutable query_counter : int }

let create ?mode ?scheduling database =
  let t = { database; env = Machine.create_env ?mode ?scheduling database; query_counter = 0 } in
  (* abolishing a predicate must also abolish its memoized answers:
     without this, a completed table for p/N keeps answering from
     clauses that no longer exist after remove_pred + re-declare *)
  Database.on_mutation database (function
    | Database.Removed_pred { name; arity } ->
        ignore (Machine.remove_tables_for t.env (name, arity))
    | (Database.Added_clause _ | Database.Retracted_clause _) as m ->
        (* incremental tabling: drop (or mark for repair) only the
           completed tables the mutation actually affects *)
        Machine.note_mutation t.env m
    | _ -> ());
  t

let db t = t.database
let env t = t.env

type solution = {
  bindings : (string * Term.t) list;
  conditional : bool;
  delays : Machine.delay list;
}

let var_name fallback v =
  match v.Term.vname with Some n -> n | None -> Printf.sprintf "_%s%d" fallback v.Term.vid

(* Run [goal] to completion (or first answer / answer limit / external
   stop / step budget) against a fresh, private query table, then read
   the answers back out of table space.

   Returns the solutions found together with how the evaluation ended:
   [`Complete] (fixpoint reached), [`Limit] (the answer limit was hit),
   or [`Interrupted] (the [stop] callback fired, or the step budget ran
   out mid-derivation). In every case the private query table is
   dropped and the trail restored, so table space stays consistent for
   the next query on the same engine. *)
let run_query_bounded ?limit ?stop ?max_steps t goal =
  let goal = Database.encode t.database goal in
  (* stale incremental tables are repaired before the query reads them;
     runs under the engine-wide step bound, not this query's budget *)
  Machine.repair_stale t.env;
  let vars = Term.vars goal in
  let names = List.map (var_name "G") vars in
  t.query_counter <- t.query_counter + 1;
  let functor_name = Printf.sprintf "$query%d" t.query_counter in
  let template = Term.struct_ functor_name (Array.of_list (List.map (fun v -> Term.Var v) vars)) in
  let ev = Machine.new_eval t.env None in
  let qsub = Machine.create_table ev (Canon.of_term template) (functor_name, List.length vars) in
  Machine.push_task ev
    (Machine.Run
       {
         r_owner = qsub;
         r_snapshot = Machine.susp_term goal [] template;
         r_delays = [];
         r_skip_first = false;
         r_extra_delay = None;
       });
  let limit_hit () = match limit with Some n -> Machine.answer_count qsub >= n | None -> false in
  let stop_hit () = match stop with Some f -> f () | None -> false in
  let stop_fn =
    match (limit, stop) with
    | None, None -> None
    | _ -> Some (fun () -> limit_hit () || stop_hit ())
  in
  (* a per-query step budget, relative to the engine's running step
     counter. Install it only when it is the binding bound: if a tighter
     engine-wide [set_max_steps] bound is already in place (or no usable
     budget was given), a [Step_limit] overrun is the engine-wide
     bound's and must keep raising, not be reported as `Interrupted. *)
  let saved_max = t.env.Machine.max_steps in
  let budget_binding =
    match max_steps with
    | Some budget when budget > 0 ->
        let absolute = t.env.Machine.stats.Machine.st_steps + budget in
        if saved_max > 0 && saved_max <= absolute then false
        else begin
          t.env.Machine.max_steps <- absolute;
          true
        end
    | _ -> false
  in
  let trail_mark = Xsb_term.Trail.mark t.env.Machine.trail in
  let finish () =
    (* never leave in-progress tables behind: they would block later
       queries; the private query table is always dropped. A stopped
       evaluation may have been interrupted mid-derivation, so restore
       the trail too. *)
    t.env.Machine.max_steps <- saved_max;
    Xsb_term.Trail.undo_to t.env.Machine.trail trail_mark;
    Machine.abandon_eval ev;
    Machine.delete_table t.env qsub
  in
  let ending =
    match Machine.run_eval ?stop:stop_fn ev with
    | () -> if limit_hit () then `Limit else if stop_hit () then `Interrupted else `Complete
    | exception Machine.Step_limit when budget_binding -> `Interrupted
    | exception e ->
        finish ();
        raise e
  in
  let solutions =
    Machine.fold_answers
      (fun acc (a : Machine.answer) ->
        let instance = Canon.to_term a.Machine.a_template in
        let args =
          match Term.deref instance with
          | Term.Struct (_, args) -> Array.to_list args
          | _ -> []
        in
        {
          bindings = List.combine names args;
          conditional = a.Machine.a_delays <> [];
          delays = a.Machine.a_delays;
        }
        :: acc)
      [] qsub
    |> List.rev
  in
  finish ();
  (solutions, ending)

let run_query ?(first = false) t goal =
  fst (run_query_bounded ?limit:(if first then Some 1 else None) t goal)

let query t goal = run_query t goal

let query_first t goal = match run_query ~first:true t goal with s :: _ -> Some s | [] -> None

type bounded =
  [ `Answers of solution list | `Truncated of solution list | `Timeout of solution list ]

let run_bounded ?max_steps ?stop ?limit t goal : bounded =
  let solutions, ending = run_query_bounded ?limit ?stop ?max_steps t goal in
  match ending with
  | `Complete -> `Answers solutions
  | `Limit -> `Truncated solutions
  | `Interrupted -> `Timeout solutions

let parse t text = Xsb_parse.Parser.term_of_string ~ops:(Database.ops t.database) text

let run_bounded_string ?max_steps ?stop ?limit t text =
  run_bounded ?max_steps ?stop ?limit t (parse t text)

let query_string t text = query t (parse t text)
let query_first_string t text = query_first t (parse t text)
let succeeds t text = query_first_string t text <> None
let count_solutions t text = List.length (query_string t text)

let run_deferred t goals = List.iter (fun g -> ignore (query t g)) goals

let consult_string_count t source =
  let result = Loader.consult_string t.database source in
  run_deferred t result.Loader.deferred_goals;
  result.Loader.clauses_loaded

let consult_string t source = ignore (consult_string_count t source)

let consult_file t path =
  let result = Loader.consult_file t.database path in
  run_deferred t result.Loader.deferred_goals

let set_tabling t flag = t.env.Machine.tabling_enabled <- flag

let scheduling t = t.env.Machine.scheduling
let set_scheduling t strategy = t.env.Machine.scheduling <- strategy
let set_max_steps t n = t.env.Machine.max_steps <- n

let recorder t = t.env.Machine.obs
let metrics t = t.env.Machine.metrics

let add_sink t sink = Xsb_obs.Obs.Recorder.attach t.env.Machine.obs sink
let clear_sinks t = Xsb_obs.Obs.Recorder.clear t.env.Machine.obs

let set_profiling t flag =
  let m = t.env.Machine.metrics in
  if flag && not (Xsb_obs.Obs.Metrics.enabled m) then Xsb_obs.Obs.Metrics.reset m;
  Xsb_obs.Obs.Metrics.set_enabled m flag

let pp_profile ?internal ppf t = Xsb_obs.Obs.Metrics.pp_report ?internal ppf (metrics t)
let pp_table_dump ppf t = Machine.pp_table_dump ppf t.env

let stats t = t.env.Machine.stats

let table_space_bytes t = Machine.table_space_bytes t.env
let call_index_bytes t = Machine.call_index_bytes t.env
let table_bytes_by_pred t = Machine.table_bytes_by_pred t.env

let publish_metrics t reg =
  let module M = Xsb_obs.Metrics in
  let s = t.env.Machine.stats in
  List.iter
    (fun (r : Machine.stat_row) ->
      M.Gauge.set
        (M.gauge reg ~labels:[ ("kind", r.key) ]
           ~help:"SLG evaluation counters since the last table reset." "xsb_engine_stat")
        (Float.of_int (r.get s)))
    Machine.stat_rows;
  M.Gauge.set
    (M.gauge reg ~help:"Live tabled subgoals." "xsb_engine_tables")
    (Float.of_int (Canon.Tbl.length t.env.Machine.tables));
  M.Gauge.set
    (M.gauge reg
       ~help:"Estimated bytes of all answer tables (tries, entries, bookkeeping)."
       "xsb_table_space_bytes")
    (Float.of_int (table_space_bytes t));
  M.Gauge.set
    (M.gauge reg
       ~help:"Estimated bytes of the call-subsumption discrimination tries."
       "xsb_call_index_bytes")
    (Float.of_int (call_index_bytes t));
  List.iter
    (fun ((name, arity), bytes) ->
      let g =
        M.gauge reg
          ~labels:[ ("pred", Printf.sprintf "%s/%d" name arity) ]
          ~help:"Estimated table bytes per tabled predicate." "xsb_table_bytes"
      in
      M.Gauge.set g (Float.of_int bytes))
    (table_bytes_by_pred t)

let reset_tables t = Machine.abolish_tables t.env

let tables t =
  Canon.Tbl.fold
    (fun key (sub : Machine.subgoal) acc ->
      let answers =
        Machine.fold_answers
          (fun acc (a : Machine.answer) -> a.Machine.a_template :: acc)
          [] sub
        |> List.rev
      in
      (key, sub.Machine.s_state = Machine.Complete, answers) :: acc)
    t.env.Machine.tables []
