(* oltp: TPC-C-lite under NVM durability, one closed-loop client.

   Set-up populates the schema, runs a warm-up and checkpoints (merges);
   the durable image is then saved. Every measured round re-opens that
   same image, warms the volatile views with a fixed prefix, and times a
   fixed number of transactions: throughput falls as orders accumulate
   (delivery and main-partition lookups scan), so each round has the
   same length and starts from the same state. No merges run in the
   rounds; a query and merge probe follows them. *)

open Common
module Tpcc = Workload.Tpcc_lite
module Predicate = Query.Predicate
module Aggregate = Query.Aggregate

type size = {
  warehouses : int;
  districts : int;
  customers : int;
  populate_ops : int;  (* transactions run before the checkpoint *)
  warm_ops : int;  (* untimed prefix of every round *)
  round_ops : int;  (* timed transactions per round *)
  region_mb : int;
}

let full =
  { warehouses = 2; districts = 4; customers = 10; populate_ops = 1500; warm_ops = 300;
    round_ops = 600; region_mb = 16 }

let tiny =
  { warehouses = 1; districts = 2; customers = 5; populate_ops = 50; warm_ops = 10;
    round_ops = 40; region_mb = 16 }

type profile = New_order | Payment | Order_status | Delivery

let profile_name = function
  | New_order -> "new_order"
  | Payment -> "payment"
  | Order_status -> "order_status"
  | Delivery -> "delivery"

(* The default 44/42/6/8 mix, drawn here so each latency sample knows its
   profile; the TPC-C session then runs exactly that profile. *)
let draw rng =
  let r = Prng.int rng 100 in
  if r < 44 then New_order else if r < 86 then Payment else if r < 92 then Delivery
  else Order_status

let only = function
  | New_order -> { Tpcc.new_order_pct = 100; payment_pct = 0; delivery_pct = 0 }
  | Payment -> { Tpcc.new_order_pct = 0; payment_pct = 100; delivery_pct = 0 }
  | Delivery -> { Tpcc.new_order_pct = 0; payment_pct = 0; delivery_pct = 100 }
  | Order_status -> { Tpcc.new_order_pct = 0; payment_pct = 0; delivery_pct = 0 }

let idx = function New_order -> 0 | Payment -> 1 | Order_status -> 2 | Delivery -> 3

(* The query and merge probe at the end of a run, outside the measured
   rounds: range counts and a grouped aggregate over order_line, each
   checked against a row-by-row scan, then a merge of order_line. It
   gives the query, par and merge layers their per-layer numbers; the
   gated metrics never include it. *)
let probe_queries = 20

let query_probe r l e rng =
  let amounts = ref [] in
  Engine.with_txn e (fun txn ->
      Engine.scan e txn "order_line" (fun _ vs ->
          match (vs.(1), vs.(3)) with
          | Value.Int n, Value.Int a -> amounts := (n, a) :: !amounts
          | _ -> attempt r ~what:"oltp order_line row shape" false));
  let rows = Array.of_list !amounts in
  let lo_all = Array.fold_left (fun m (_, a) -> min m a) max_int rows in
  let hi_all = Array.fold_left (fun m (_, a) -> max m a) min_int rows in
  let width = max 1 ((hi_all - lo_all) / 10) in
  let q name f = fst (Layers.par_section l (fun () -> Trace.span name (fun () -> Layers.query l f))) in
  for _ = 1 to probe_queries do
    Trace.new_op ();
    let lo = lo_all + Prng.int rng (max 1 (hi_all - lo_all)) in
    let hi = lo + width in
    let got =
      q "query.count_where" (fun () ->
          Engine.with_txn e (fun txn ->
              Engine.count_where e txn "order_line"
                [ ("ol_amount", Predicate.Between (Value.Int lo, Value.Int hi)) ]))
    in
    let expected = Array.fold_left (fun c (_, a) -> if a >= lo && a <= hi then c + 1 else c) 0 rows in
    check r ~what:"oltp order_line range count" ~expected ~actual:got
  done;
  let res =
    q "query.aggregate" (fun () ->
        Engine.with_txn e (fun txn ->
            Engine.aggregate e txn "order_line" ~group_by:"ol_number"
              ~specs:[ Aggregate.Count; Aggregate.Sum "ol_amount" ] ()))
  in
  let by = Hashtbl.create 16 in
  Array.iter
    (fun (n, a) ->
      let c, s = Option.value ~default:(0, 0) (Hashtbl.find_opt by n) in
      Hashtbl.replace by n (c + 1, s + a))
    rows;
  check r ~what:"oltp order_line aggregate groups" ~expected:(Hashtbl.length by)
    ~actual:(List.length res.Aggregate.groups);
  List.iter
    (fun (key, cells) ->
      match (key, cells) with
      | Some (Value.Int n), [| Aggregate.Num c; Aggregate.Num s |] ->
          let ec, es = Option.value ~default:(0, 0) (Hashtbl.find_opt by n) in
          check r ~what:(Printf.sprintf "oltp ol_number %d count" n) ~expected:ec ~actual:(int_of_float c);
          check r ~what:(Printf.sprintf "oltp ol_number %d sum" n) ~expected:es ~actual:(int_of_float s)
      | _ -> attempt r ~what:"oltp aggregate group shape" false)
    res.Aggregate.groups;
  let region = Engine.region e in
  let w0 = (Region.stats region).Region.writebacks in
  match
    guarded r ~what:"oltp order_line merge" (fun () ->
        Layers.par_section l (fun () -> Trace.span "storage.merge" (fun () -> Engine.merge e "order_line")))
  with
  | Some (st, _) ->
      Layers.merged l st ~writebacks:((Region.stats region).Region.writebacks - w0);
      check r ~what:"oltp order_line merge keeps every row" ~expected:(Array.length rows)
        ~actual:st.Storage.Merge.rows_out
  | None -> ()

let run (ctx : ctx) r =
  let sz = if ctx.tiny then tiny else full in
  (* An 8 MiB minor heap instead of the default 2 MiB, which is the size
     of the L2 cache of the machine the benchmark was tuned on: there the
     transactions' allocation cycled through exactly the L2, and their
     latency swung with other tenants' use of the cache. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20 };
  let rounds = if ctx.tiny then 2 else max 4 (ctx.seconds * 5) in
  let attach e =
    Tpcc.attach e ~warehouses:sz.warehouses ~districts_per_wh:sz.districts
      ~customers_per_district:sz.customers
  in
  let image n = Filename.concat (Lazy.force scratch_dir) (Printf.sprintf "oltp%d.img" n) in
  let setup, cfg =
    Setup.first ~extra:(if ctx.tiny then 1 else 6) ~steps:rounds
      ~discard:(fun _ -> ())
      (fun n ->
        let cfg = Engine.default_config ~size:(sz.region_mb lsl 20) Engine.Nvm in
        let e = Engine.create cfg in
        Engine.set_writers e 1;
        let sess =
          Tpcc.setup e ~warehouses:sz.warehouses ~districts_per_wh:sz.districts
            ~customers_per_district:sz.customers
        in
        let st = Tpcc.run sess (Prng.create (Int64.of_int ctx.seed)) ~ops:sz.populate_ops () in
        attempt r ~what:"oltp populate aborts" (st.Tpcc.aborted = 0);
        ignore (Engine.checkpoint e);
        Engine.save_image e (image n);
        (* a crash detaches the engine from the process-wide flight
           recorder, so its region is freed before the next one exists *)
        let cfg = Engine.config e in
        ignore (Engine.crash e Region.Drop_unfenced);
        cfg)
  in
  let lat = Array.init 4 (fun _ -> Timing.create ()) in
  if ctx.traced then Gcmon.start ();
  let l = Layers.create () in
  let last = ref None in
  for round = 1 to rounds do
    let traced = ctx.traced && round mod 2 = 1 in
    Gc.compact ();
    set_traced traced;
    let e, _ = Trace.span "core.open_image" (fun () -> Engine.open_image cfg (image 0)) in
    Engine.set_writers e 1;
    let sess = attach e in
    let wrng = Prng.create (Int64.of_int (ctx.seed + 7)) in
    for _ = 1 to sz.warm_ops do
      ignore (Tpcc.run_one sess wrng ())
    done;
    let orders0 = Tpcc.total_orders sess in
    let rng = Prng.create (Int64.of_int ((ctx.seed * 1000) + round)) in
    let new_orders = ref 0 in
    let t_round = now_ns () in
    Layers.region_work l (Engine.region e) (fun () ->
        for _ = 1 to sz.round_ops do
          Trace.new_op ();
          let p = draw rng in
          let t0 = now_ns () in
          let ok =
            Trace.span ("core." ^ profile_name p) (fun () -> Tpcc.run_one sess rng ~mix:(only p) ())
          in
          let dt = now_ns () - t0 in
          attempt r ~what:("oltp " ^ profile_name p ^ " aborted") ok;
          if ok then Timing.add lat.(idx p) (ms dt);
          if ok && p = New_order then incr new_orders
        done);
    Layers.round_wall l ~traced (now_ns () - t_round);
    set_traced false;
    Array.iter Timing.end_round lat;
    l.ops <- l.ops + sz.round_ops;
    (* every acknowledged new-order is an order row *)
    check r ~what:"oltp orders after round" ~expected:(orders0 + !new_orders)
      ~actual:(Tpcc.total_orders sess);
    Gcmon.poll ();
    if round < rounds then begin
      ignore (Engine.crash e Region.Drop_unfenced);
      (* between rounds nothing else is live, so the extra set-ups do not
         stack on the measured state in the peak resident set *)
      Setup.step setup round
    end
    else last := Some sess
  done;
  let sess = Option.get !last in
  let e = Tpcc.engine sess in
  l.live_blocks <- (Nvm_alloc.Allocator.heap_stats (Engine.allocator e)).Nvm_alloc.Allocator.live_blocks;
  (* end-of-run checks: invariants, then a crash that must keep every
     acknowledged order *)
  List.iter (fun (what, ok) -> attempt r ~what:("oltp " ^ what) ok) (Tpcc.consistency_check sess);
  metric r "space.bytes_per_user_byte" "ratio"
    (float_of_int (Engine.data_bytes e) /. float_of_int (visible_logical_bytes e Tpcc.table_names));
  Gc.compact ();
  set_traced ctx.traced;
  query_probe r l e (Prng.create (Int64.of_int (ctx.seed + 11)));
  set_traced false;
  let orders = Tpcc.total_orders sess in
  (match
     guarded r ~what:"oltp crash recovery" (fun () ->
         Engine.recover (Engine.crash e Region.Drop_unfenced))
   with
  | Some (e', stats) ->
      Layers.nvm_recovered l r stats;
      let sess' = attach e' in
      let recovered, dt = timed (fun () -> Tpcc.total_orders sess') in
      Samples.add l.Layers.first_lookup (ms dt);
      check r ~what:"oltp orders after crash" ~expected:orders ~actual:recovered;
      List.iter
        (fun (what, ok) -> attempt r ~what:("oltp after crash: " ^ what) ok)
        (Tpcc.consistency_check sess')
  | None -> ());
  Setup.report r setup;
  metric r "op1_ms" "ms" (Timing.best lat.(0));
  metric r "op2_ms" "ms" (Timing.best lat.(1));
  metric r "op3_ms" "ms" (Timing.best lat.(2));
  if ctx.traced then Layers.print r l;
  Printf.printf
    "oltp: %d warehouses x %d districts x %d customers, %d populate txns, %d rounds x \
     (%d warm + %d timed) txns, region %d MiB; op1 = new-order, op2 = payment, op3 = \
     order-status, each the median of the fastest of the rounds; new-order median %.3f ms and \
     p99 %.3f ms over all %d samples (not gated: host noise sets them)\n"
    sz.warehouses sz.districts sz.customers sz.populate_ops rounds sz.warm_ops sz.round_ops
    sz.region_mb (Samples.median lat.(0).Timing.all) (Samples.quantile lat.(0).Timing.all 0.99) (Timing.count lat.(0))
