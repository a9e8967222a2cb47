(* restart: crash and recovery, cold, NVM against log replay.

   One NVM engine and one log-mode engine hold the same history: a merged
   main, then a delta of comparable size from batched inserts and
   uniform-key updates, then an open transaction at the crash
   (Drop_unfenced). The NVM media image taken at that crash goes through
   many cycles of restore, recover and first point lookup, so every
   restart recovers the same bytes. The log engine is crashed once and
   recovered several times from the same, untouched log bytes. *)

open Common
module Ycsb = Workload.Ycsb

type size = {
  main_rows : int;  (* rows merged into the main before the delta *)
  delta_inserts : int;
  delta_updates : int;
  open_writes : int;  (* inserts and updates of the transaction open at each crash *)
  region_mb : int;
}

let full =
  { main_rows = 6_000; delta_inserts = 3_000; delta_updates = 3_000; open_writes = 4;
    region_mb = 16 }

let tiny = { main_rows = 400; delta_inserts = 200; delta_updates = 200; open_writes = 2; region_mb = 16 }

let ycfg rows = { Ycsb.default_config with Ycsb.rows; zipf_theta = 0.0 }
let table = Ycsb.table_name

let row rng key =
  let c = Ycsb.default_config in
  Array.append [| Value.Int key |]
    (Array.init c.Ycsb.fields (fun _ -> Value.Text (Prng.alpha_string rng c.Ycsb.field_length)))

(* Update [n] distinct uniformly drawn keys inside [txn], addressing rows
   through [rids] (key -> current row id) so no lookup scans the main. *)
let update_keys e txn rng rids ~keys n =
  let seen = Hashtbl.create n in
  while Hashtbl.length seen < n do
    let k = 1 + Prng.int rng keys in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      match Engine.get_row e txn table rids.(k) with
      | Some vs ->
          let vs = Array.copy vs in
          vs.(1) <- Value.Text (Prng.alpha_string rng Ycsb.default_config.Ycsb.field_length);
          rids.(k) <- Engine.update e txn table rids.(k) vs
      | None -> failwith (Printf.sprintf "restart history: key %d not visible" k)
    end
  done

(* The committed history; deterministic in [seed], so the NVM and the log
   engine end up with equal contents and row numbering. Returns the
   number of committed keys, their current row ids, and the row ids they
   had in the merged main. *)
let history e sz ~seed =
  ignore (Ycsb.setup e (Prng.create (Int64.of_int seed)) (ycfg sz.main_rows));
  ignore (Engine.checkpoint e);
  let keys = sz.main_rows + sz.delta_inserts in
  let rids = Array.make (keys + 1) (-1) in
  Engine.with_txn e (fun txn ->
      Engine.scan e txn table (fun rid vs ->
          match vs.(0) with Value.Int k -> rids.(k) <- rid | _ -> ()));
  let merged = Array.copy rids in
  let rng = Prng.create (Int64.of_int (seed + 1)) in
  let next = ref sz.main_rows in
  let ins = ref sz.delta_inserts and upd = ref sz.delta_updates in
  while !ins > 0 || !upd > 0 do
    let n = min 256 !ins in
    if n > 0 then
      Engine.with_txn e (fun txn ->
          for _ = 1 to n do
            incr next;
            rids.(!next) <- Engine.insert e txn table (row rng !next)
          done);
    ins := !ins - n;
    let m = min 64 !upd in
    if m > 0 then Engine.with_txn e (fun txn -> update_keys e txn rng rids ~keys:!next m);
    upd := !upd - m
  done;
  (keys, rids, merged)

(* The transaction open at a crash: [open_writes] inserts of new keys and
   as many updates of committed ones. No recovery may keep its rows.
   Returns the row ids as the open transaction sees them. *)
let open_txn e sz rng ~keys ~rids =
  let txn = Engine.begin_txn e in
  for i = 1 to sz.open_writes do
    ignore (Engine.insert e txn table (row rng (keys + i)))
  done;
  let seen = Array.copy rids in
  update_keys e txn rng seen ~keys sz.open_writes;
  seen

let checksum e = Ycsb.checksum (Ycsb.attach e (ycfg 0))

let lookup e k =
  Engine.with_txn e (fun txn -> Engine.lookup e txn table ~col:"key" (Value.Int k))

(* The NVM engine and the media image taken at its crash. Every cycle
   writes that image back before it recovers, so each restart recovers
   the same bytes: the committed history plus the open transaction. *)
type nvm_image = { mutable e : Engine.t; media : bytes; untouched : int array; sum : int }

let nvm_image sz ~seed =
  let e = Engine.create (Engine.default_config ~size:(sz.region_mb lsl 20) Engine.Nvm) in
  Engine.set_writers e 1;
  let keys, rids, merged = history e sz ~seed in
  let sum = checksum e in
  let seen = open_txn e sz (Prng.create (Int64.of_int (seed + 3))) ~keys ~rids in
  (* keys of the merged main that no transaction wrote since the merge *)
  let untouched =
    Array.of_list
      (List.filter
         (fun k -> rids.(k) = merged.(k) && seen.(k) = merged.(k))
         (List.init sz.main_rows (fun i -> i + 1)))
  in
  let region = Engine.region e in
  let crashed = Engine.crash e Region.Drop_unfenced in
  let media = Region.read_bytes region 0 (Region.size region) in
  { e = fst (Engine.recover crashed); media; untouched; sum }

(* Put the image back on the media of a crashed region. With persistence
   off the write goes straight to the media, as a restore of the device
   from a backup would. *)
let restore_media region media =
  Region.set_persist_enabled region false;
  Region.write_bytes region 0 media;
  Region.set_persist_enabled region true

(* Samples of one image's restarts. *)
type phases = { ready : Timing.t; first : Timing.t; warm : Samples.t }

let phases () = { ready = Timing.create (); first = Timing.create (); warm = Samples.create () }

(* One NVM restart cycle: crash, restore the image, recover, first
   lookup, then the checks. Untraced cycles add their times to [ph];
   every cycle adds its phases and Region traffic to [l]. *)
let nvm_cycle r (img : nvm_image) rng ph l ~traced =
  (* a key of the merged main that no transaction wrote since: every
     first answer then does the same work (the lookup of a delta-only key
     skips the main's scan, that of an updated one also reads the delta) *)
  let k = img.untouched.(Prng.int rng (Array.length img.untouched)) in
  let expected = match lookup img.e k with [ (_, vs) ] -> Some vs | _ -> None in
  let region = Engine.region img.e in
  let crashed = Engine.crash img.e Region.Drop_unfenced in
  restore_media region img.media;
  Gc.compact ();
  set_traced traced;
  Trace.new_op ();
  let t0 = now_ns () in
  let recovered =
    Layers.region_work l region (fun () ->
        match
          guarded r ~what:"nvm recover" (fun () ->
              Trace.span "core.recover" (fun () ->
                  let e, stats = Engine.recover crashed in
                  Layers.nvm_recovered l r stats;
                  e))
        with
        | None -> None
        | Some e ->
            let t_ready = now_ns () in
            let hits = Trace.span "core.first_lookup" (fun () -> lookup e k) in
            Some (e, t_ready, hits, now_ns ()))
  in
  Layers.round_wall l ~traced (now_ns () - t0);
  set_traced false;
  match recovered with
  | None -> ()
  | Some (e, t_ready, hits, t_first) ->
      img.e <- e;
      l.ops <- l.ops + 1;
      Samples.add l.first_lookup (ms (t_first - t_ready));
      if not traced then begin
        Timing.add ph.ready (ms (t_ready - t0));
        Timing.add ph.first (ms (t_first - t0));
        (* a warm lookup of the same key: the cold cost is what remains *)
        let _, warm = timed (fun () -> lookup e k) in
        Samples.add ph.warm (us warm)
      end;
      check r ~what:"nvm first lookup rows" ~expected:1 ~actual:(List.length hits);
      check r ~what:"nvm first lookup row matches the row before the crash" ~expected:1
        ~actual:(match (hits, expected) with [ (_, vs) ], Some x when vs = x -> 1 | _ -> 0);
      (* the open transaction's inserts and updates are all absent *)
      check r ~what:"nvm recovered checksum" ~expected:img.sum ~actual:(checksum e)

let run (ctx : ctx) r =
  let sz = if ctx.tiny then tiny else full in
  let cycles = if ctx.tiny then 4 else max 20 (ctx.seconds * 16) in
  let log_recoveries = if ctx.tiny then 2 else max 3 (ctx.seconds * 4 / 5) in
  let size = sz.region_mb lsl 20 in
  let setup, (img, (log_cfg, lc, log_sum), quarter) =
    Setup.first ~extra:(if ctx.tiny then 1 else 4) ~steps:cycles
      ~discard:(fun (img, (_, lc, _), quarter) ->
        List.iter
          (fun (i : nvm_image) -> ignore (Engine.crash i.e Region.Drop_unfenced))
          (img :: Option.to_list quarter);
        rm_rf lc.Wal.Log.dir)
      (fun n ->
        let img = nvm_image sz ~seed:ctx.seed in
        let lc =
          { Wal.Log.dir = fresh_dir (Printf.sprintf "wal%d" n); group_commit_size = 1; fsync = false }
        in
        let cfg = { Engine.region = Region.config_with_size size; durability = Engine.Logging lc; salvage = None } in
        let le = Engine.create cfg in
        let keys, rids, _ = history le sz ~seed:ctx.seed in
        let sum = checksum le in
        ignore (open_txn le sz (Prng.create (Int64.of_int (ctx.seed + 3))) ~keys ~rids);
        ignore (Engine.crash le Region.Drop_unfenced);
        let quarter =
          if ctx.traced && n = 0 then
            Some
              (nvm_image
                 { sz with main_rows = sz.main_rows / 4; delta_inserts = sz.delta_inserts / 4;
                           delta_updates = sz.delta_updates / 4 }
                 ~seed:ctx.seed)
          else None
        in
        (img, (cfg, lc, sum), quarter))
  in
  check r ~what:"log and nvm histories agree" ~expected:img.sum ~actual:log_sum;
  if ctx.traced then Gcmon.start ();
  let l = Layers.create () and ql = Layers.create () in
  let ph = phases () and qph = phases () in
  let rng = Prng.create (Int64.of_int (ctx.seed + 2)) in
  (* log recovery of the same data, from the same log bytes each time *)
  let log_ms = Timing.create () in
  let log_recovery i =
    Gc.compact ();
    set_traced (ctx.traced && i mod 2 = 1);
    match
      guarded r ~what:"log recover" (fun () ->
          Layers.par_section l (fun () ->
              Trace.span "core.recover_log" (fun () ->
                  let e, detail = Engine.recover_log ~reopen:false log_cfg lc in
                  Layers.log_recovered l r detail;
                  e)))
    with
    | None -> set_traced false
    | Some (e, dt) ->
        set_traced false;
        Timing.add_round log_ms (ms dt);
        check r ~what:"log recovered checksum" ~expected:log_sum ~actual:(checksum e);
        ignore (Engine.crash e Region.Drop_unfenced)
  in
  (* NVM cycles with the log recoveries (and, traced, the quarter-size
     image's cycles) spread evenly among them, so every statistic samples
     the whole run *)
  let log_every = max 1 (cycles / log_recoveries) in
  for c = 1 to cycles do
    nvm_cycle r img rng ph l ~traced:(ctx.traced && c mod 2 = 1);
    Option.iter (fun q -> if c mod 4 = 0 then nvm_cycle r q rng qph ql ~traced:false) quarter;
    if c mod log_every = 0 && c / log_every <= log_recoveries then log_recovery (c / log_every);
    if c mod 10 = 0 then Array.iter Timing.end_round [| ph.ready; ph.first |];
    Gcmon.poll ();
    Setup.step setup c
  done;
  l.live_blocks <- (Nvm_alloc.Allocator.heap_stats (Engine.allocator img.e)).Nvm_alloc.Allocator.live_blocks;
  metric r "space.bytes_per_user_byte" "ratio"
    (float_of_int (Engine.data_bytes img.e) /. float_of_int (visible_logical_bytes img.e [ table ]));
  Setup.report r setup;
  metric r "op1_ms" "ms" (Timing.best ph.first);
  metric r "op2_ms" "ms" (Timing.best ph.ready);
  metric r "op3_ms" "ms" (Timing.best log_ms);
  if ctx.traced then Layers.print r l;
  let growth =
    if Timing.count qph.ready = 0 then nan
    else Samples.median ph.ready.Timing.all /. Samples.median qph.ready.Timing.all
  in
  Printf.printf
    "restart: %d main rows + %d inserted + %d updated (uniform keys), %d uncommitted writes at \
     each crash; %d NVM cycles, %d log recoveries; log engine: group commit 1, fsync off; \
     region %d MiB; op1 = NVM crash to first answer, op2 = NVM crash to ready (median of \
     the fastest round of 10 cycles each), op3 = log recovery (fastest); medians over all \
     cycles %.3f / %.3f ms; warm lookup %.1f us; ready on the full image / on a quarter-size image: %.3f \
     (traced runs only)\n"
    sz.main_rows sz.delta_inserts sz.delta_updates (2 * sz.open_writes) cycles log_recoveries
    sz.region_mb (Samples.median ph.first.Timing.all) (Samples.median ph.ready.Timing.all)
    (Samples.median ph.warm) growth
