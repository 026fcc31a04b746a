let fig4_with_measured ctx fmt =
  (* TAB-LIFE feeds its measured lifetime factors into the carbon model so
     Fig. 4 appears both with the paper's parameters and with ours. *)
  let rows = Lifetime_table.run ~ctx fmt in
  Fig4.run ~measured_lifetime:(Lifetime_table.lifetime_factors rows) fmt

let experiments =
  [
    ("terms", fun _ctx fmt -> Terms.run fmt);
    ("fig2", fun _ctx fmt -> Fig2.run fmt);
    ("fig3ab", fun ctx fmt -> Fig3ab.run ~ctx fmt);
    ("fig3cd", fun ctx fmt -> Fig3perf.run ~ctx fmt);
    ("lifetime+fig4", fig4_with_measured);
    ("tco", fun _ctx fmt -> Tco_table.run fmt);
    ("recovery", fun ctx fmt -> Recovery_table.run ~ctx fmt);
    ("uber", fun ctx fmt -> Uber_table.run ~ctx fmt);
    ("ablations", fun ctx fmt -> Ablations.run ~ctx fmt);
    ("chaos", fun ctx fmt -> ignore (Chaos.run ~ctx fmt));
    ("shrink-vs-repair", fun ctx fmt -> ignore (Chaos.run_shrink_vs_repair ~ctx fmt));
    ("traffic", fun ctx fmt -> ignore (Traffic_run.run ~ctx fmt));
  ]

let run ?(ctx = Ctx.default) fmt =
  (* One level of parallelism: whole experiments fan out across the pool,
     so each runner receives a pool-less scratch context (a task must
     never submit into the pool it runs on).  Every experiment renders
     into its own buffer; printing and merging then happen in list order,
     making the output byte-identical at any domain count. *)
  let rendered =
    Ctx.map ctx experiments (fun sub (id, runner) ->
        let buf = Buffer.create 4096 in
        let bfmt = Format.formatter_of_buffer buf in
        Format.fprintf bfmt "@.### experiment %s@." id;
        runner sub bfmt;
        Format.pp_print_flush bfmt ();
        Buffer.contents buf)
  in
  List.iter (Format.pp_print_string fmt) rendered;
  Format.fprintf fmt "@."
