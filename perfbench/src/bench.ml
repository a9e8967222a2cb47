(* The repository benchmark: one workload per run.

     bench.exe --workload oltp|restart --seed N --seconds S --trace 0|1

   Untraced runs print every end-to-end metric; traced runs print the
   per-layer metrics, the benchmark's span self times and the tracing
   overhead. The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. [--size tiny] shrinks
   every workload for the self-test; [--corrupt-oracle] makes one oracle
   answer wrong, which must show as a failed operation. *)

open Common

let workloads = [ ("oltp", Oltp.run); ("restart", Restart.run) ]

(* Written by hand rather than with Obs.Json, which rounds floats to six
   significant digits: the result line keeps every digit as measured. *)
let json_line r metrics =
  let b = Buffer.create 512 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (r.failed = 0) r.attempted r.failed;
  List.iteri
    (fun i (name, v, unit_) ->
      Printf.bprintf b "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        name
        (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
        unit_)
    (List.rev metrics);
  Buffer.add_string b "}}";
  Buffer.contents b

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let size = ref "full" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " oltp | restart");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " measured length (fixed work calibrated to it)");
      ("--trace", Arg.Set_int trace, " 1 = traced run printing per-layer metrics");
      ("--size", Arg.Set_string size, " full | tiny (self-test)");
      ("--corrupt-oracle", Arg.Set corrupt_oracle, " self-test: falsify one oracle answer");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if !size <> "full" && !size <> "tiny" then (prerr_endline "--size: full | tiny"; exit 2);
  let ctx = { seed = !seed; seconds = max 1 !seconds; traced = !trace = 1; tiny = !size = "tiny" } in
  Par.set_jobs 2;
  Printf.printf "perfbench %s: seed %d, seconds %d, trace %d, size %s; jobs %d, writers 1, one closed-loop client\n%!"
    !workload ctx.seed ctx.seconds !trace !size (Par.jobs ());
  let r = result () in
  (match run ctx r with
  | () -> ()
  | exception e ->
      cleanup_scratch ();
      Printf.eprintf "perfbench: %s\n%s%!" (Printexc.to_string e) (Printexc.get_backtrace ());
      exit 1);
  cleanup_scratch ();
  metric r "peak_rss_mb" "MiB" (peak_rss_mb ());
  if ctx.traced then begin
    Gcmon.stop ();
    Trace.print ()
  end;
  Par.shutdown ();
  let metrics = if ctx.traced then r.layer else r.e2e in
  List.iter
    (fun (name, v, _) -> attempt r ~what:("metric " ^ name ^ " is a finite number") (Float.is_finite v))
    metrics;
  print_endline (json_line r metrics)
