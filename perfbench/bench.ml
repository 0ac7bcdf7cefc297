(* The repository benchmark's measuring program: one sample of one
   workload per process, calling the POWDER optimizer through the
   library at jobs = 1.

     bench.exe --workload NAME --seed N --trace 0 [--check-verifier]
     bench.exe --workload NAME --seed N --trace 1

   --trace 0 times the set-up (several times) and one
   [Optimizer.optimize] call with tracing off, reads the peak RSS,
   verifies the output and prints one "sample" record.  --trace 1 runs
   the same sample with an [Obs.Profile] sink installed, wraps the
   benchmark's calls into each layer in [Obs.Trace] spans, probes
   single layers on the input, and prints one "traced" record carrying
   the per-layer metrics.  The seed selects the verification stimulus
   only: a workload's circuit and optimizer configuration are fixed,
   so quality and counts repeat exactly across seeds.  run.py builds
   this program, runs the samples and aggregates them; see README.md. *)

module Circuit = Netlist.Circuit
module Opt = Powder.Optimizer
module Json = Obs.Json
module Trace = Obs.Trace
module Metrics = Obs.Metrics

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type verifier =
  | Exhaustive  (** exhaustive equivalence, a proof *)
  | Random_sim  (** 65,536 random patterns: a strong screen, not a proof *)
  | Both

type workload = {
  name : string;
  build : unit -> Circuit.t;  (** the set-up: build the mapped input *)
  config : Opt.config;  (** [Optimizer.default_config] plus overrides *)
  verifier : verifier;
}

let suite name () =
  match Circuits.Suite.find name with
  | Some spec -> Circuits.Suite.mapped spec
  | None -> invalid_arg ("perfbench: unknown suite circuit " ^ name)

let default = Opt.default_config

let workloads =
  [
    (* 584 gates, 24 PIs, run to convergence (37 rounds): generate and
       exact-check across many rounds *)
    { name = "cps-converge"; build = suite "cps"; config = default;
      verifier = Random_sim };
    (* 224 gates, 20 PIs, delay kept at the initial value: SAT-bound,
       and the only workload that exercises the delay legality check *)
    { name = "c880-keep"; build = suite "C880";
      config = { default with delay = Opt.Keep_initial };
      verifier = Exhaustive };
    (* 4,064 live gates, 120 PIs, one round: generation and memory *)
    { name = "synth3k-round1";
      build = (fun () -> Circuits.Generators.synth ~seed:1 ~gates:3000);
      config = { default with max_rounds = 1 };
      verifier = Random_sim };
    (* harness self-test only: small, and checked by both verifiers *)
    { name = "comp-selftest"; build = suite "comp"; config = default;
      verifier = Both };
  ]

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)
(* ------------------------------------------------------------------ *)

let now = Obs.Clock.now

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let median = function
  | [] -> Float.nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let status = In_channel.with_open_text "/proc/self/status" In_channel.input_all in
  List.fold_left
    (fun acc line ->
      match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
      | kb -> float_of_int kb /. 1024.0
      | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> acc)
    Float.nan
    (String.split_on_char '\n' status)

let emit fields = print_endline (Json.to_string (Json.Obj fields))

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)
(* ------------------------------------------------------------------ *)

let verify_words = 1024 (* 64 * 1024 = 65,536 patterns *)

let names_of c ids = List.sort compare (List.map (Circuit.name c) ids)

(* Simulate both circuits on the same random PI patterns, drawn from a
   stream the optimizer never draws from, and compare every PO. *)
let random_sim_equal ~seed reference result =
  let er = Sim.Engine.create reference ~words:verify_words in
  Sim.Engine.randomize er
    (Sim.Rng.stream (Int64.of_int seed) "perfbench/verify");
  let eo = Sim.Engine.create result ~words:verify_words in
  List.iter
    (fun pi ->
      match Circuit.find_by_name reference (Circuit.name result pi) with
      | Some r -> Sim.Engine.set_value eo pi (Sim.Engine.value er r)
      | None -> invalid_arg "perfbench: result has an unknown PI")
    (Circuit.pis result);
  Sim.Engine.resim_all eo;
  Sim.Engine.equivalent_on_patterns er eo

let exhaustive_equal reference result =
  Atpg.Equiv.check ~exhaustive_limit:20 reference result = Atpg.Equiv.Equivalent

let verify wl ~seed ~reference result =
  Result.is_ok (Circuit.validate result)
  && names_of reference (Circuit.pis reference) = names_of result (Circuit.pis result)
  && names_of reference (Circuit.pos reference) = names_of result (Circuit.pos result)
  &&
  match wl.verifier with
  | Exhaustive -> exhaustive_equal reference result
  | Random_sim -> random_sim_equal ~seed reference result
  | Both ->
    exhaustive_equal reference result && random_sim_equal ~seed reference result

(* A copy of [c] with one PO driver's function complemented, or [None]
   when no PO driver has a complement cell in the library.  The
   verifier must reject it: the flipped PO differs on every pattern. *)
let corrupt c =
  let c = Circuit.clone c in
  let lib = Gatelib.Library.cells (Circuit.library c) in
  let flip_driver po =
    let d = Circuit.po_driver c po in
    match Circuit.kind c d with
    | Circuit.Cell (cell, _) -> (
      let want = Logic.Tt.not_ cell.Gatelib.Cell.func in
      match
        List.find_opt
          (fun (k : Gatelib.Cell.t) -> Logic.Tt.equal k.func want)
          lib
      with
      | Some k ->
        Circuit.set_cell c d k;
        true
      | None -> false)
    | Circuit.Pi | Circuit.Const _ | Circuit.Po _ -> false
  in
  if List.exists flip_driver (Circuit.pos c) then Some c else None

(* ------------------------------------------------------------------ *)
(* One optimization                                                    *)
(* ------------------------------------------------------------------ *)

(* Values that must repeat exactly across runs of the same code. *)
type exact = {
  power_reduction_pct : float;
  area_ratio : float;
  delay_ratio : float;
  check_decided_share : float;
  rounds : int;
  checks : int;
  candidates : int;
  sat_conflicts : int;
}

let counter name =
  match Metrics.find name with Some (`Counter n) -> n | _ -> 0

let giveups (r : Opt.report) = r.rejected_by_giveup + r.rejected_by_timeout

let exact_of (r : Opt.report) ~sat_conflicts =
  {
    power_reduction_pct = Opt.power_reduction_percent r;
    area_ratio = r.final_area /. r.initial_area;
    delay_ratio = r.final_delay /. r.initial_delay;
    check_decided_share =
      (if r.checks_run = 0 then 1.0
       else 1.0 -. (float_of_int (giveups r) /. float_of_int r.checks_run));
    rounds = r.rounds;
    checks = r.checks_run;
    candidates = r.candidates_generated;
    sat_conflicts;
  }

let exact_json e =
  [
    ("power_reduction_pct", Json.Float e.power_reduction_pct);
    ("area_ratio", Json.Float e.area_ratio);
    ("delay_ratio", Json.Float e.delay_ratio);
    ("check_decided_share", Json.Float e.check_decided_share);
    ("optimizer.rounds", Json.Int e.rounds);
    ("check.calls", Json.Int e.checks);
    ("generate.candidates", Json.Int e.candidates);
    ("sat.conflicts", Json.Int e.sat_conflicts);
  ]

type sample = {
  report : Opt.report;
  exact : exact;
  wall_s : float;
  rss_mb : float;
  verified : bool;
  verify_s : float;
  registry : Json.t;  (** the metrics registry when optimize returned *)
  result : Circuit.t;
  reference : Circuit.t;
}

(* A run that stopped on its budget or the degradation ladder did not
   do the workload's work. *)
let stopped_early (r : Opt.report) =
  List.mem r.stopped_by [ "degradation"; "run_budget" ]

(* Build a fresh input and a reference copy (both untimed), optimize,
   read the peak RSS before verification allocates, then verify.  The
   set-up, optimize and verify calls sit in benchmark spans, which cost
   two clock reads each while no trace sink is installed. *)
let optimize_once wl ~seed =
  let input = Trace.with_span "bench.setup" wl.build in
  let reference = wl.build () in
  Gc.full_major ();
  let conflicts0 = counter "atpg.sat.conflicts" in
  let report, wall_s =
    timed (fun () ->
        Trace.with_span "bench.optimize" (fun () ->
            Opt.optimize ~config:wl.config input))
  in
  let rss_mb = peak_rss_mb () in
  let exact =
    exact_of report ~sat_conflicts:(counter "atpg.sat.conflicts" - conflicts0)
  in
  let registry = Metrics.to_json () in
  let verified, verify_s =
    timed (fun () ->
        Trace.with_span "bench.verify" (fun () ->
            verify wl ~seed ~reference input))
  in
  { report; exact; wall_s; rss_mb; verified; verify_s; registry;
    result = input; reference }

let sample_ok s = s.verified && not (stopped_early s.report)

(* ------------------------------------------------------------------ *)
(* One end-to-end sample (--trace 0)                                   *)
(* ------------------------------------------------------------------ *)

(* Set-up is repeated and its median reported: a single build of a
   small input is too short to time steadily, and the first few builds
   of a process also pay for growing the fresh heap. *)
let setup_reps = 15

let time_setups wl =
  List.init setup_reps (fun _ ->
      Gc.full_major ();
      snd (timed wl.build))

(* The verifier must reject a corrupted copy of a real output. *)
let verifier_rejects_corruption wl ~seed s =
  match corrupt s.result with
  | None -> false
  | Some bad -> not (verify wl ~seed ~reference:s.reference bad)

let floats xs = Json.List (List.map (fun x -> Json.Float x) xs)

(* One sample per process: every optimize starts from a fresh heap, as
   a user's run does, and VmHWM is this one run's peak. *)
let sample_mode wl ~seed ~check_verifier =
  let setup = time_setups wl in
  let common =
    [
      ("kind", Json.String "sample");
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("setup_s", floats setup);
    ]
  in
  match optimize_once wl ~seed with
  | s ->
    emit
      (common
      @ [
          ("ok", Json.Bool (sample_ok s));
          ("wall_s", Json.Float s.wall_s);
          ("peak_rss_mb", Json.Float s.rss_mb);
          ("verified", Json.Bool s.verified);
          ("verify_s", Json.Float s.verify_s);
          ("stopped_by", Json.String s.report.stopped_by);
          ("substitutions", Json.Int s.report.substitutions);
          ("exact", Json.Obj (exact_json s.exact));
        ]
      @
      if check_verifier then
        [ ("verifier_rejects_corruption",
           Json.Bool (verifier_rejects_corruption wl ~seed s)) ]
      else [])
  | exception e ->
    emit
      (common
      @ [ ("ok", Json.Bool false); ("error", Json.String (Printexc.to_string e)) ])

(* ------------------------------------------------------------------ *)
(* Traced run (--trace 1)                                              *)
(* ------------------------------------------------------------------ *)

(* Probes time one layer's public entry point on the workload's input,
   from outside.  Short calls are repeated (at least [min_reps] times
   and [min_s] seconds) and the median per call is reported. *)
let probe name ?(min_reps = 3) ?(min_s = 0.3) f =
  Trace.with_span name (fun () ->
      let t0 = now () in
      let rec go acc n =
        let v, dt = timed f in
        let acc = dt :: acc in
        if n + 1 >= min_reps && now () -. t0 >= min_s then (v, median acc)
        else go acc (n + 1)
      in
      go [] 0)

(* How many top-ranked initial candidates [probe.check_s] proves. *)
let probe_checks = 8

let probes wl =
  let c = wl.build () in
  let cfg = wl.config in
  let prob_of pi = cfg.input_prob (Circuit.name c pi) in
  let eng, engine_s =
    probe "probe.engine_randomize" (fun () ->
        let e = Sim.Engine.create c ~words:cfg.words in
        Sim.Engine.randomize_sharded ~input_probs:prob_of ~seed:cfg.seed e;
        e)
  in
  let _, sigstore_s =
    probe "probe.sigstore_create" (fun () ->
        Sim.Sigstore.sync (Sim.Sigstore.create ~base:eng ()))
  in
  let est = Power.Estimator.create eng in
  let cand_config =
    {
      Powder.Candidates.classes = cfg.classes;
      per_target = cfg.per_target;
      pool_limit = cfg.pool_limit;
      require_positive = true;
      credit_downstream = cfg.is3_credit;
      index = cfg.sig_index;
    }
  in
  let (cands, _), generate_s =
    probe "probe.generate" ~min_reps:1 (fun () ->
        Powder.Candidates.generate_stats ~config:cand_config est)
  in
  let top = List.filteri (fun i _ -> i < probe_checks) cands in
  let _, check_s =
    probe "probe.check" ~min_reps:1 ~min_s:0.0 (fun () ->
        List.iter
          (fun (s, _) ->
            ignore
              (Powder.Check.permissible ~backtrack_limit:cfg.backtrack_limit
                 ~exhaustive_limit:cfg.exhaustive_limit
                 ~engine:cfg.check_engine c s))
          top)
  in
  let _, sta_s = probe "probe.sta_analyze" (fun () -> Sta.Timing.analyze c) in
  [
    ("probe.engine_randomize_s", engine_s, "s");
    ("probe.sigstore_create_s", sigstore_s, "s");
    ("probe.generate_s", generate_s, "s");
    ("probe.check_s", check_s, "s");
    ("probe.sta_analyze_s", sta_s, "s");
  ]

(* The optimizer's phase spans; every span nested in one (the
   generate/* sub-spans) belongs to that layer. *)
let layers = Opt.phase_names

let last l = List.nth l (List.length l - 1)

(* Inside the [bench.optimize] span: self time per layer (each profile
   node's exclusive time goes to the innermost layer span on its path)
   and inclusive time per span name. *)
let layer_times prof =
  let self = Hashtbl.create 8 and incl = Hashtbl.create 8 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  Obs.Profile.iter_nodes prof
    (fun ~path ~count:_ ~inclusive_s ~exclusive_s ~alloc_bytes:_
         ~children_inclusive_s:_ ->
      if List.mem "bench.optimize" path then begin
        add incl (last path) inclusive_s;
        match List.filter (fun n -> List.mem n layers) path with
        | [] -> ()
        | inside -> add self (last inside) exclusive_s
      end);
  let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  (get self, get incl)

(* Per-layer self times plus the optimizer's time outside its phases
   must account for the traced wall time to within this share. *)
let accounting_tolerance_pct = 5.0

let traced_mode wl ~seed =
  let prof = Obs.Profile.create () in
  let check_durs = ref [] in
  let capture =
    Trace.make_sink
      ~emit:(fun (ev : Trace.event) ->
        if ev.name = "span_end" && ev.path <> [] && last ev.path = "exact-check"
        then
          match List.assoc_opt "dur_s" ev.fields with
          | Some (Trace.Float d) -> check_durs := d :: !check_durs
          | _ -> ())
      ~close:ignore
  in
  Trace.set_sink (Trace.tee_sink [ Obs.Profile.sink prof; capture ]);
  Metrics.reset ();
  let gc0 = Gc.quick_stat () in
  let s = optimize_once wl ~seed in
  let gc1 = Gc.quick_stat () in
  let probe_metrics = probes wl in
  Trace.close_sink ();
  let self, incl = layer_times prof in
  let r = s.report in
  let outside =
    r.cpu_seconds -. List.fold_left (fun a (_, t) -> a +. t) 0.0 r.phase_seconds
  in
  let accounted_pct =
    100.0 *. List.fold_left (fun a l -> a +. self l) outside layers /. s.wall_s
  in
  let sat_solve_s =
    Option.value ~default:0.0
      (Option.bind (Json.member "atpg.sat.solve_seconds" s.registry) (fun h ->
           Option.bind (Json.member "sum" h) Json.get_float))
  in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let per_s a t = if t > 0.0 then float_of_int a /. t else 0.0 in
  let durs = !check_durs in
  let count n = (float_of_int n, "count") in
  let metrics =
    [
      ("optimizer.rounds", count r.rounds);
      ("optimizer.outside_phases_s", (outside, "s"));
      ("generate.self_s", (self "generate", "s"));
      ("generate.targets_s", (incl "generate/targets", "s"));
      ("generate.scan_s", (incl "generate/scan", "s"));
      ("generate.candidates", count r.candidates_generated);
      ("generate.sig_filtered", count r.sig_filtered);
      ("generate.filtered_per_s",
       (per_s r.sig_filtered (incl "generate/scan"), "1/s"));
      ("generate.yield", (ratio r.substitutions r.candidates_generated, "ratio"));
      ("rank.self_s", (self "rank", "s"));
      ("refine_pgc.self_s", (self "refine-pgc", "s"));
      ("check.self_s", (self "exact-check", "s"));
      ("check.max_s", (List.fold_left Float.max 0.0 durs, "s"));
      ("check.calls", count r.checks_run);
      ("check.p50_ms", ((if durs = [] then 0.0 else 1000.0 *. median durs), "ms"));
      ("check.cex_screened", count r.rejected_by_cex);
      ("check.yield", (ratio r.substitutions r.checks_run, "ratio"));
      ("check.giveups", count (giveups r));
      ("sat.conflicts", count s.exact.sat_conflicts);
      ("sat.conflicts_per_s", (per_s s.exact.sat_conflicts sat_solve_s, "1/s"));
      ("apply.self_s", (self "apply", "s"));
      ("sim.resim_nodes", count r.sig_resim_nodes);
      ("guard.rollbacks", count r.rolled_back);
      ("sta.self_s", (self "sta", "s"));
      ("sta.delay_rejects", count r.rejected_by_delay);
      ("gc.major_collections",
       count (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("gc.top_heap_mb",
       (float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0,
        "MB"));
    ]
    @ List.map (fun (n, v, u) -> (n, (v, u))) probe_metrics
    @ [
        ("verify_s", (s.verify_s, "s"));
        ("trace.wall_s", (s.wall_s, "s"));
        ("trace.accounted_pct", (accounted_pct, "%"));
      ]
  in
  emit
    [
      ("kind", Json.String "traced");
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("ok",
       Json.Bool
         (sample_ok s
         && Float.abs (accounted_pct -. 100.0) <= accounting_tolerance_pct));
      ("stopped_by", Json.String r.stopped_by);
      ("exact_check_spans", Json.Int (List.length durs));
      ("exact", Json.Obj (exact_json s.exact));
      ("registry", s.registry);
      ("metrics",
       Json.Obj
         (List.map
            (fun (name, (v, unit)) ->
              (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
            metrics));
    ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  Obs.Runtime.tune_gc ();
  let workload = ref "" and seed = ref 1 and trace = ref 0 in
  let check_verifier = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N verification stimulus seed");
      ("--trace", Arg.Set_int trace, "0|1 one end-to-end sample (0) or a traced run (1)");
      ("--check-verifier", Arg.Set check_verifier,
       " also check that the verifier rejects a corrupted output");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --trace 0|1 [--check-verifier]";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    prerr_endline ("bench.exe: unknown workload " ^ !workload);
    exit 2
  | Some wl ->
    if !trace = 0 then sample_mode wl ~seed:!seed ~check_verifier:!check_verifier
    else traced_mode wl ~seed:!seed
