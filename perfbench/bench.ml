(* perfbench entry point:
     bench.exe --workload NAME --seed N --seconds S --trace 0|1
   Prints [_meta] and [_spans] lines, then the result object last. *)

let workloads =
  [
    ("fleet_lifetime", fun seed -> Perfbench.Fleet_wl.make ~seed ());
    ("traffic_tail", fun seed -> Perfbench.Traffic_wl.make ~seed ());
    ("chaos_campaign", fun seed -> Perfbench.Chaos_wl.make ~seed ());
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of: " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N seed the workload's inputs are generated from");
      ("--seconds", Arg.Set_float seconds, "S how long to repeat the untraced workload");
      ("--trace", Arg.Set_int trace, "0|1 add the traced run and report per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let make =
    match List.assoc_opt !workload workloads with
    | Some make -> make
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let w = make !seed in
  let r =
    Fun.protect ~finally:w.Perfbench.Harness.teardown (fun () ->
        Perfbench.Runner.run ~workload:w ~seconds:!seconds ~trace:(!trace = 1))
  in
  Perfbench.Runner.print r
