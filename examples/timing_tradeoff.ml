(* Power-delay trade-off (the experiment behind the paper's Figure 6)
   on a handful of benchmark circuits: sweep the allowed delay increase
   and watch the extra power savings saturate.

   Run with: dune exec examples/timing_tradeoff.exe *)

let () =
  let names = [ "rd84"; "alu2"; "f51m"; "t481" ] in
  let config = { Powder.Optimizer.default_config with words = 16 } in
  let specs =
    List.map
      (fun p -> Pareto.Sweep.Scale (1.0 +. (p /. 100.0)))
      [ 0.0; 10.0; 30.0; 80.0; 200.0 ]
  in
  List.iter
    (fun name ->
      match Circuits.Suite.find name with
      | None -> ()
      | Some spec ->
        let r =
          Pareto.Sweep.run ~config ~specs ~name (fun () ->
              Circuits.Suite.mapped spec)
        in
        Format.printf "%a@." Pareto.Sweep.pp r)
    names;
  Format.printf
    "Reading the frontiers: the 1.00x point keeps each circuit at its@.\
     initial delay; looser constraints buy additional power savings@.\
     until the curve flattens (compare the paper's Figure 6).@."
