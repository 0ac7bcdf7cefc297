module Circuit = Netlist.Circuit
module Library = Gatelib.Library

let check_valid c =
  match Circuit.validate c with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invalid circuit: " ^ e)

let test_build_and_validate () =
  let c, _, _, _, _, _, _ = Build.fig2_a () in
  check_valid c;
  Alcotest.(check int) "gates" 3 (Circuit.gate_count c);
  Alcotest.(check int) "pis" 3 (List.length (Circuit.pis c));
  Alcotest.(check int) "pos" 2 (List.length (Circuit.pos c))

let test_loads () =
  let c, a, b, _, d, _, _ = Build.fig2_a () in
  (* a drives: and2(e) pin (1.0) + xor2(d) pin (2.0) *)
  Alcotest.(check (float 1e-9)) "load a" 3.0 (Circuit.load_of c a);
  (* b drives two and2 pins *)
  Alcotest.(check (float 1e-9)) "load b" 2.0 (Circuit.load_of c b);
  (* d drives one and2 pin *)
  Alcotest.(check (float 1e-9)) "load d" 1.0 (Circuit.load_of c d)

let test_set_fanin () =
  let c, a, _, _, d, e, _ = Build.fig2_a () in
  Circuit.set_fanin c d 0 e;
  check_valid c;
  Alcotest.(check int) "a fanouts" 1 (Circuit.num_fanouts c a);
  Alcotest.(check int) "e fanouts" 2 (Circuit.num_fanouts c e);
  Alcotest.(check bool) "d fanin" true ((Circuit.fanins c d).(0) = e)

let test_replace_stem_and_sweep () =
  let c, ab, abc, out = Build.redundant_and () in
  (* replace the redundant or-output by ab directly *)
  Circuit.replace_stem c out ab;
  check_valid c;
  let killed = Circuit.sweep c in
  check_valid c;
  Alcotest.(check bool) "out killed" true (List.mem out killed);
  Alcotest.(check bool) "abc killed" true (List.mem abc killed);
  Alcotest.(check bool) "ab alive" true (Circuit.is_live c ab);
  Alcotest.(check int) "one gate left" 1 (Circuit.gate_count c)

let test_cycle_detection () =
  let c, _, _, _, d, _, f = Build.fig2_a () in
  (* connecting f into d's input would create a cycle *)
  Alcotest.(check bool) "would cycle" true (Circuit.would_cycle_pin c d 0 f);
  Alcotest.check_raises "set_fanin rejects"
    (Invalid_argument "Circuit.set_fanin: would create a cycle") (fun () ->
      Circuit.set_fanin c d 0 f)

let test_tfo_tfi () =
  let c, a, _, _, d, e, f = Build.fig2_a () in
  let tfo = Circuit.tfo c a in
  Alcotest.(check bool) "d in tfo(a)" true tfo.(d);
  Alcotest.(check bool) "e in tfo(a)" true tfo.(e);
  Alcotest.(check bool) "f in tfo(a)" true tfo.(f);
  Alcotest.(check bool) "a not in tfo(a)" false tfo.(a);
  let tfi = Circuit.tfi c f in
  Alcotest.(check bool) "a in tfi(f)" true tfi.(a);
  Alcotest.(check bool) "e not in tfi(f)" false tfi.(e)

let test_dominators () =
  let c, ab, abc, out = Build.redundant_and () in
  (* abc's only fanout is out: Dom(out) contains abc and nc but not ab
     (ab also feeds out directly AND abc, both inside... ab's fanouts
     are abc and out, both in Dom(out), so ab IS dominated too). *)
  let dom = Circuit.dominated_region c out in
  Alcotest.(check bool) "out in dom" true dom.(out);
  Alcotest.(check bool) "abc in dom" true dom.(abc);
  Alcotest.(check bool) "ab in dom" true dom.(ab);
  (* Dom(abc): just abc and nc; ab escapes through its direct edge to out *)
  let dom_abc = Circuit.dominated_region c abc in
  Alcotest.(check bool) "abc in dom(abc)" true dom_abc.(abc);
  Alcotest.(check bool) "ab not in dom(abc)" false dom_abc.(ab);
  (match Circuit.find_by_name c "nc" with
  | Some nc -> Alcotest.(check bool) "nc in dom(abc)" true dom_abc.(nc)
  | None -> Alcotest.fail "nc not found")

let test_inputs_of_region () =
  let c, ab, abc, _ = Build.redundant_and () in
  let dom_abc = Circuit.dominated_region c abc in
  let ins = Circuit.inputs_of_region c dom_abc in
  (* ab feeds abc from outside (it escapes through its direct edge to
     the or-gate); pi "c" only feeds nc, so it lies INSIDE the region
     and is not one of its inputs *)
  Alcotest.(check bool) "ab is an input" true (List.mem ab ins);
  (match Circuit.find_by_name c "c" with
  | Some ci ->
    Alcotest.(check bool) "pi c dominated" true dom_abc.(ci);
    Alcotest.(check bool) "pi c not an input" false (List.mem ci ins)
  | None -> Alcotest.fail "pi c not found")

let test_topo_order () =
  let c = Build.random_circuit ~seed:7 ~n_pis:8 ~n_gates:40 in
  check_valid c;
  let order = Circuit.topo_order c in
  let pos_of = Array.make (Circuit.num_nodes c) (-1) in
  Array.iteri (fun k id -> pos_of.(id) <- k) order;
  Array.iter
    (fun id ->
      Array.iter
        (fun f ->
          Alcotest.(check bool) "fanin before node" true (pos_of.(f) < pos_of.(id)))
        (Circuit.fanins c id))
    order

let test_clone_independent () =
  let c, _, _, _, d, e, _ = Build.fig2_a () in
  let c2 = Circuit.clone c in
  Circuit.set_fanin c2 d 0 e;
  (* original untouched *)
  Alcotest.(check bool) "orig fanin" true ((Circuit.fanins c d).(0) <> e);
  check_valid c;
  check_valid c2

let test_area () =
  let c, _, _, _, _, _, _ = Build.fig2_a () in
  let and2 = Library.find Build.lib "and2" and xor2 = Library.find Build.lib "xor2" in
  Alcotest.(check (float 1e-6)) "area"
    ((2.0 *. and2.Gatelib.Cell.area) +. xor2.Gatelib.Cell.area)
    (Circuit.area c)

let prop_random_circuits_valid =
  QCheck.Test.make ~name:"random circuits validate" ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
      let c = Build.random_circuit ~seed ~n_pis:6 ~n_gates:25 in
      match Circuit.validate c with Ok () -> true | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Scratch marks vs the allocating references                          *)
(* ------------------------------------------------------------------ *)

let fuzz_circuit seed =
  Fuzz.Gen.generate (Fuzz.Gen.spec_of_seed (Int64.of_int seed))

(* Dom(s) on scratch marks as (membership mask, member list). *)
let dom_by_marks c s =
  Circuit.with_marks c (fun m ->
      let members = Circuit.dominated_region_marks c m s in
      (Array.init (Circuit.num_nodes c) (Circuit.mem m), Array.to_list members))

let dom_reference c s =
  let d = Circuit.dominated_region c s in
  let members = ref [] in
  Array.iteri (fun i inside -> if inside then members := i :: !members) d;
  (d, List.rev !members)

let reaches_reference c a b = a = b || (Circuit.tfo c a).(b)

(* every live node as a Dom root and a bounded sample of (a, b) pairs *)
let check_against_references c =
  let n = Circuit.num_nodes c in
  let live = ref [] in
  Circuit.iter_live c (fun id -> live := id :: !live);
  List.iter
    (fun s ->
      let mask, members = dom_by_marks c s in
      let rmask, rmembers = dom_reference c s in
      Alcotest.(check (array bool))
        (Printf.sprintf "Dom(%d) mask" s)
        rmask mask;
      Alcotest.(check (list int))
        (Printf.sprintf "Dom(%d) members" s)
        rmembers members)
    !live;
  for a = 0 to n - 1 do
    if Circuit.is_live c a then
      for k = 0 to 7 do
        let b = (a * 7 + k * 13) mod n in
        Alcotest.(check bool)
          (Printf.sprintf "reaches %d %d" a b)
          (reaches_reference c a b) (Circuit.reaches c a b)
      done
  done

let test_marks_match_references () =
  for seed = 1 to 12 do
    check_against_references (fuzz_circuit seed)
  done

let test_marks_nested () =
  let c = fuzz_circuit 3 in
  let gates = Array.of_list (Circuit.live_gates c) in
  Circuit.with_marks c (fun outer ->
      Array.iteri
        (fun k g -> if k mod 2 = 0 then Circuit.set outer g (k + 2))
        gates;
      Circuit.with_marks c (fun inner ->
          Array.iter
            (fun g ->
              Alcotest.(check int) "inner starts empty" 0 (Circuit.get inner g))
            gates;
          Circuit.mark inner gates.(0));
      (* borrows nested two deep (Dom's counters, reaches' visited set)
         inside this one leave its marks untouched *)
      check_against_references c;
      Array.iteri
        (fun k g ->
          Alcotest.(check int) "outer kept"
            (if k mod 2 = 0 then k + 2 else 0)
            (Circuit.get outer g))
        gates);
  Circuit.with_marks c (fun again ->
      Array.iter
        (fun g ->
          Alcotest.(check bool) "reborrow empty" false (Circuit.mem again g))
        gates)

(* Checks in a fresh domain, whose scratch arrays start empty: its
   first borrow sizes them to exactly this circuit (built beforehand,
   since building borrows marks too). *)
let test_marks_growing_circuit () =
  let c = fuzz_circuit 5 in
  Domain.join @@ Domain.spawn @@ fun () ->
  let x, y =
    match Circuit.pis c with x :: y :: _ -> (x, y) | _ -> Alcotest.fail "pis"
  in
  let and2 = Library.find Build.lib "and2" in
  (* growth during a borrow: the new node lies beyond the arrays *)
  Circuit.with_marks c (fun m ->
      Circuit.mark m x;
      let g = Circuit.add_cell c and2 [| x; y |] in
      Alcotest.(check bool) "new node unmarked" false (Circuit.mem m g);
      Circuit.set m g 5;
      Alcotest.(check int) "new node marked" 5 (Circuit.get m g);
      Alcotest.(check bool) "old mark kept" true (Circuit.mem m x));
  check_valid c;
  check_against_references c;
  (* growth between borrows: a stem replaced by a new gate over two PIs,
     which cannot close a cycle *)
  let a =
    List.find (fun g -> Circuit.num_fanouts c g > 0) (Circuit.live_gates c)
  in
  let before = Circuit.num_nodes c in
  let src =
    Powder.Subst.apply c
      { Powder.Subst.target = Powder.Subst.Stem a;
        source = Powder.Subst.Gate2 (and2, x, y) }
  in
  Alcotest.(check bool) "grew" true (src >= before);
  check_valid c;
  check_against_references c

let test_marks_in_pool () =
  let c = fuzz_circuit 7 in
  let gates = Array.of_list (Circuit.live_gates c) in
  let n = Circuit.num_nodes c in
  let work s =
    let _, members = dom_by_marks c s in
    (members, List.init n (fun b -> Circuit.reaches c s b))
  in
  let expected =
    Array.map
      (fun s -> (snd (dom_reference c s), List.init n (reaches_reference c s)))
      gates
  in
  Par.Pool.with_pool ~jobs:2 (fun pool ->
      let got = Par.Pool.map pool ~f:work gates in
      Array.iteri
        (fun k e ->
          match got.(k) with
          | Some (members, reach) ->
            Alcotest.(check (list int)) "Dom in task" (fst e) members;
            Alcotest.(check (list bool)) "reaches in task" (snd e) reach
          | None -> Alcotest.fail "task cancelled")
        expected)

let suite =
  [
    ( "circuit",
      [
        Alcotest.test_case "build and validate" `Quick test_build_and_validate;
        Alcotest.test_case "loads" `Quick test_loads;
        Alcotest.test_case "set_fanin" `Quick test_set_fanin;
        Alcotest.test_case "replace_stem and sweep" `Quick test_replace_stem_and_sweep;
        Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
        Alcotest.test_case "tfo/tfi" `Quick test_tfo_tfi;
        Alcotest.test_case "dominated region" `Quick test_dominators;
        Alcotest.test_case "inputs of region" `Quick test_inputs_of_region;
        Alcotest.test_case "topo order" `Quick test_topo_order;
        Alcotest.test_case "clone independence" `Quick test_clone_independent;
        Alcotest.test_case "area" `Quick test_area;
        QCheck_alcotest.to_alcotest prop_random_circuits_valid;
        Alcotest.test_case "marks: reaches and Dom = references" `Quick
          test_marks_match_references;
        Alcotest.test_case "marks: nested borrows" `Quick test_marks_nested;
        Alcotest.test_case "marks: circuit grows" `Quick
          test_marks_growing_circuit;
        Alcotest.test_case "marks: pool tasks at jobs 2" `Quick
          test_marks_in_pool;
      ] );
  ]

(* appended: version counter / topo cache coherence *)
let test_topo_cache_invalidation () =
  let c, _, _, _, d, e, _ = Build.fig2_a () in
  let o1 = Circuit.topo_order c in
  let o1' = Circuit.topo_order c in
  Alcotest.(check bool) "cached physical" true (o1 == o1');
  Circuit.set_fanin c d 0 e;
  let o2 = Circuit.topo_order c in
  Alcotest.(check bool) "invalidated" true (not (o1 == o2));
  (* still a valid order *)
  let pos_of = Array.make (Circuit.num_nodes c) (-1) in
  Array.iteri (fun k id -> pos_of.(id) <- k) o2;
  Array.iter
    (fun id ->
      Array.iter
        (fun f -> Alcotest.(check bool) "order" true (pos_of.(f) < pos_of.(id)))
        (Circuit.fanins c id))
    o2

let suite =
  match suite with
  | [ (name, tests) ] ->
    [ (name,
       tests
       @ [ Alcotest.test_case "topo cache invalidation" `Quick
             test_topo_cache_invalidation ]) ]
  | other -> other
