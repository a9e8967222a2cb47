(* Shared harness pieces: the clock, sample statistics, failure accounting
   against oracles, the benchmark's own span recorder, and probes of the
   runtime (GC, RSS) and of the NVM primitives. *)

module Engine = Core.Engine
module Region = Nvm.Region
module Prng = Util.Prng
module Value = Storage.Value

(* One run's parameters: the workload seed, the measured length in
   seconds, whether this is the traced run, and the self-test size. *)
type ctx = { seed : int; seconds : int; traced : bool; tiny : bool }

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms ns = float_of_int ns /. 1e6
let us ns = float_of_int ns /. 1e3

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* -- sample statistics -- *)

(* Linear interpolation between closest ranks. *)
let quantile (xs : float array) q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "quantile: no samples";
  let a = Array.copy xs in
  Array.sort compare a;
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* Growable float sample buffer. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
  let count t = t.n
  let quantile t q = quantile (to_array t) q
  let median t = quantile t 0.5
end

(* Latency samples of one kind of operation, also grouped by measured
   round. *)
module Timing = struct
  type t = { all : Samples.t; mutable cur : Samples.t; rounds : Samples.t }

  let create () = { all = Samples.create (); cur = Samples.create (); rounds = Samples.create () }

  let add t x =
    Samples.add t.all x;
    Samples.add t.cur x

  let end_round t =
    if Samples.count t.cur > 0 then begin
      Samples.add t.rounds (Samples.median t.cur);
      t.cur <- Samples.create ()
    end

  let count t = Samples.count t.all

  (* A sample that is a round of its own (a merge, a log recovery). *)
  let add_round t x =
    add t x;
    end_round t

  (* The median of the fastest round. Host noise on a shared machine
     only adds time, and it comes in spells of seconds that hit whole
     rounds; over many rounds the fastest one's median is the steadiest
     estimate of the program's own cost. *)
  let best t =
    end_round t;
    Samples.quantile t.rounds 0.0
end

(* -- run result: metrics plus failure accounting -- *)

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable e2e : (string * float * string) list;  (* newest first *)
  mutable layer : (string * float * string) list;
}

let result () = { attempted = 0; failed = 0; e2e = []; layer = [] }

(* An end-to-end metric (printed by untraced runs) and a per-layer metric
   (printed by traced runs). *)
let metric r name unit_ v = r.e2e <- (name, v, unit_) :: r.e2e
let layer r name unit_ v = r.layer <- (name, v, unit_) :: r.layer

(* One attempted operation; [ok = false] counts it as failed. *)
let attempt r ~what ok =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    Printf.eprintf "FAILED: %s\n%!" what
  end

(* Self-test hook: with [--corrupt-oracle] the first oracle answer that
   passes through [check] is off by one, which must surface as exactly
   one failed operation. *)
let corrupt_oracle = ref false

let check r ~what ~expected ~actual =
  let expected =
    if !corrupt_oracle then begin
      corrupt_oracle := false;
      expected + 1
    end
    else expected
  in
  attempt r ~what:(Printf.sprintf "%s: expected %d, got %d" what expected actual)
    (expected = actual)

(* Every step a workload makes that raises counts as one failed
   operation; the workload carries on with its next step. *)
let guarded r ~what f =
  match f () with
  | v -> Some v
  | exception e ->
      attempt r ~what:(what ^ ": " ^ Printexc.to_string e) false;
      None

(* Logical (user) bytes of a row: 8 per number, the length of a string. *)
let logical_bytes (vs : Value.t array) =
  Array.fold_left
    (fun acc v ->
      acc + match v with Value.Int _ | Value.Float _ -> 8 | Value.Text s -> String.length s)
    0 vs

let visible_logical_bytes e tables =
  Engine.with_txn e (fun txn ->
      List.fold_left
        (fun acc name ->
          let n = ref 0 in
          Engine.scan e txn name (fun _ vs -> n := !n + logical_bytes vs);
          acc + !n)
        0 tables)

(* -- the benchmark's own spans (traced runs only) --

   Each span records name, start, end, parent and the id of the operation
   it belongs to. They stay in memory; the run prints per-name self times
   (duration minus the time covered by child spans) when it ends. *)
module Trace = struct
  let on = ref false

  type span = { name : string; start : int; mutable stop : int; parent : int; op : int }

  let spans : span array ref = ref [||]
  let n = ref 0
  let stack = ref []
  let op = ref 0

  let new_op () = incr op

  let push s =
    if !n = Array.length !spans then begin
      let b = Array.make (max 1024 (2 * !n)) s in
      Array.blit !spans 0 b 0 !n;
      spans := b
    end;
    !spans.(!n) <- s;
    incr n

  let span name f =
    if not !on then f ()
    else begin
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      let idx = !n in
      push { name; start = now_ns (); stop = 0; parent; op = !op };
      stack := idx :: !stack;
      let finish () =
        !spans.(idx).stop <- now_ns ();
        stack := List.tl !stack
      in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e
    end

  (* (name, count, self_ns, total_ns), by descending self time *)
  let self_times () =
    let child = Array.make !n 0 in
    for i = 0 to !n - 1 do
      let s = !spans.(i) in
      if s.parent >= 0 then child.(s.parent) <- child.(s.parent) + (s.stop - s.start)
    done;
    let tbl = Hashtbl.create 32 in
    for i = 0 to !n - 1 do
      let s = !spans.(i) in
      let d = s.stop - s.start in
      let c, self, tot = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (c + 1, self + d - child.(i), tot + d)
    done;
    Hashtbl.fold (fun name (c, self, tot) acc -> (name, c, self, tot) :: acc) tbl []
    |> List.sort (fun (_, _, a, _) (_, _, b, _) -> compare b a)

  (* A finished part of the open span whose duration the program itself
     reported (a recovery phase, say): recorded as a child span ending
     now, so the open span's self time excludes it. *)
  let part name ns =
    if !on then
      match !stack with
      | parent :: _ ->
          let t = now_ns () in
          push { name; start = t - ns; stop = t; parent; op = !op }
      | [] -> ()

  (* Share of all recorded self time spent in spans named [layer.*]. *)
  let share layer =
    let all = self_times () in
    let total = List.fold_left (fun acc (_, _, self, _) -> acc + self) 0 all in
    let prefix = layer ^ "." in
    let mine =
      List.fold_left
        (fun acc (n', _, self, _) ->
          if String.starts_with ~prefix n' then acc + self else acc)
        0 all
    in
    float_of_int mine /. float_of_int (max 1 total)

  let print () =
    Printf.printf "spans: %d recorded over %d operations\n" !n !op;
    List.iter
      (fun (name, c, self, tot) ->
        Printf.printf "  span %-28s count=%-7d self_ms=%.3f total_ms=%.3f\n" name c
          (ms self) (ms tot))
      (self_times ())
end

(* Tracing for one measured round: the program's Obs registry and the
   benchmark's own spans go on and off together. *)
let set_traced b =
  Obs.set_enabled b;
  Trace.on := b

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* -- GC: Gc.quick_stat deltas plus pause time from Runtime_events -- *)
module Gcmon = struct
  let cursor = ref None
  let pause_ns = ref 0
  let open_ = Hashtbl.create 8

  let start () =
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)

  (* Pauses are the client domain's (domain 0) minor collections and
     major slices: the time it cannot run transactions or queries. *)
  let callbacks =
    let counted = function
      | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
      | _ -> false
    in
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun dom ts ph ->
        if dom = 0 && counted ph then
          Hashtbl.replace open_ ph (Runtime_events.Timestamp.to_int64 ts))
      ~runtime_end:(fun dom ts ph ->
        if dom = 0 && counted ph then
          match Hashtbl.find_opt open_ ph with
          | Some t0 ->
              Hashtbl.remove open_ ph;
              pause_ns :=
                !pause_ns + Int64.to_int (Int64.sub (Runtime_events.Timestamp.to_int64 ts) t0)
          | None -> ())
      ()

  let poll () =
    match !cursor with
    | Some c -> ignore (Runtime_events.read_poll c callbacks None)
    | None -> ()

  let stop () =
    poll ();
    (match !cursor with Some c -> Runtime_events.free_cursor c | None -> ());
    cursor := None;
    Runtime_events.pause ();
    (* the runtime's ring file: <pid>.events in OCAML_RUNTIME_EVENTS_DIR *)
    let dir = Option.value ~default:"." (Sys.getenv_opt "OCAML_RUNTIME_EVENTS_DIR") in
    rm_rf (Filename.concat dir (string_of_int (Unix.getpid ()) ^ ".events"))
end

type gc_snap = { minor_words : float; major_collections : int }

let gc_snap () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

(* Peak resident set (VmHWM) of this process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* -- set-up: timed several times over the run, the median reported --

   [Setup.first] builds the instance the workload measures. The
   workload calls [Setup.step] at each of its [steps] measured steps;
   [extra] more builds, each handed to [discard] at once, are spread
   evenly among them, so setup_s, the median build time, samples the
   whole run rather than its first seconds. *)
module Setup = struct
  type 'a t = {
    times : Samples.t;
    build : int -> 'a;  (* argument: the build's number, 0 for the measured one *)
    discard : 'a -> unit;
    extra : int;
    every : int;
    mutable done_ : int;
  }

  let timed_build t =
    Gc.compact ();
    let v, dt = timed (fun () -> t.build (Samples.count t.times)) in
    Samples.add t.times (float_of_int dt /. 1e9);
    v

  let first ~extra ~steps ~discard build =
    let t =
      { times = Samples.create (); build; discard; extra; every = max 1 (steps / (extra + 1));
        done_ = 0 }
    in
    let v = timed_build t in
    (t, v)

  let step t i =
    if i mod t.every = 0 && t.done_ < t.extra then begin
      t.done_ <- t.done_ + 1;
      t.discard (timed_build t);
      Gc.compact ()
    end

  let report r t =
    while t.done_ < t.extra do
      t.done_ <- t.done_ + 1;
      t.discard (timed_build t)
    done;
    metric r "setup_s" "s" (Samples.median t.times)
end

(* -- NVM primitive probe: times Region calls directly -- *)
let nvm_probe r =
  let region = Region.create (Region.config_with_size (1 lsl 20)) in
  let words = 1 lsl 14 in
  let per_op f =
    let reps = Samples.create () in
    for _ = 1 to 15 do
      let t0 = now_ns () in
      for i = 0 to words - 1 do
        f (i * 8)
      done;
      Samples.add reps (float_of_int (now_ns () - t0) /. float_of_int words)
    done;
    Samples.median reps
  in
  let sink = ref 0 in
  layer r "nvm.load_ns" "ns" (per_op (fun off -> sink := !sink + Region.get_int region off));
  layer r "nvm.store_ns" "ns" (per_op (fun off -> Region.set_int region off off));
  layer r "nvm.persist_ns" "ns"
    (per_op (fun off ->
         Region.set_int region off (off + 1);
         Region.writeback region off 8;
         Region.fence region));
  ignore (Sys.opaque_identity !sink)

(* Scratch files live under the checkout, in a per-process directory
   removed when the run ends. *)
let scratch_dir =
  lazy
    (let d = Printf.sprintf "perfbench/.tmp-%d" (Unix.getpid ()) in
     Unix.mkdir d 0o755;
     d)

let cleanup_scratch () = if Lazy.is_val scratch_dir then rm_rf (Lazy.force scratch_dir)

let fresh_dir name =
  let d = Filename.concat (Lazy.force scratch_dir) name in
  rm_rf d;
  d

(* -- per-layer accounting --

   Every workload fills one [layers] record over its measured phase and
   prints the same per-layer metrics from it; a layer the workload
   bypasses reads 0 in its counts and shares. An "op" is the workload's
   unit of measured work (an oltp transaction, a restart cycle). Every
   workload recovers an NVM engine at least once, so the recovery phases
   are measured in all of them. *)
module Layers = struct
  type t = {
    mutable ops : int;
    mutable loads : int;
    mutable stores : int;
    mutable writebacks : int;
    mutable fences : int;
    mutable sim_ns : int;
    mutable live_blocks : int;
    heap_open : Samples.t;
    attach : Samples.t;
    verify : Samples.t;
    rollback : Samples.t;
    blackbox : Samples.t;
    first_lookup : Samples.t;
    heap_blocks : Samples.t;
    bb_records : Samples.t;
    mutable queries : int;
    mutable rows_in : int;
    mutable blocks : int;
    mutable merges : int;
    mutable merge_rows_in : int;
    mutable merge_wb : int;
    mutable log_records : int;
    mutable log_bytes : int;
    mutable par_busy : int;
    mutable par_wall : int;
    traced_wall : Samples.t;
    plain_wall : Samples.t;
    gc0 : gc_snap;
  }

  let create () =
    let s () = Samples.create () in
    { ops = 0; loads = 0; stores = 0; writebacks = 0; fences = 0; sim_ns = 0; live_blocks = 0;
      heap_open = s (); attach = s (); verify = s (); rollback = s (); blackbox = s ();
      first_lookup = s (); heap_blocks = s (); bb_records = s (); queries = 0; rows_in = 0;
      blocks = 0; merges = 0; merge_rows_in = 0; merge_wb = 0; log_records = 0; log_bytes = 0;
      par_busy = 0; par_wall = 0; traced_wall = s (); plain_wall = s (); gc0 = gc_snap () }

  (* Region traffic of [f] (run on [region]) is added to the counts. *)
  let region_work l region f =
    let a = Region.stats region in
    let v = f () in
    let b = Region.stats region in
    l.loads <- l.loads + (b.Region.loads - a.Region.loads);
    l.stores <- l.stores + (b.Region.stores - a.Region.stores);
    l.writebacks <- l.writebacks + (b.Region.writebacks - a.Region.writebacks);
    l.fences <- l.fences + (b.Region.fences - a.Region.fences);
    l.sim_ns <- l.sim_ns + (b.Region.sim_ns - a.Region.sim_ns);
    v

  let scan_counters () =
    (Obs.counter_value (Obs.counter "scan.rows_in"), Obs.counter_value (Obs.counter "scan.blocks"))

  (* One query; its scanned rows and blocks are added to the counts. *)
  let query l f =
    let r0, b0 = scan_counters () in
    let v = f () in
    let r1, b1 = scan_counters () in
    l.queries <- l.queries + 1;
    l.rows_in <- l.rows_in + (r1 - r0);
    l.blocks <- l.blocks + (b1 - b0);
    v

  (* Wall and Par busy time of a section that may fan out. *)
  let par_section l f =
    let busy0 = Par.busy_ns_by_slot () in
    let v, dt = timed f in
    Array.iteri (fun i b -> l.par_busy <- l.par_busy + b - busy0.(i)) (Par.busy_ns_by_slot ());
    l.par_wall <- l.par_wall + dt;
    (v, dt)

  let merged l (st : Storage.Merge.stats) ~writebacks =
    l.merges <- l.merges + 1;
    l.merge_rows_in <- l.merge_rows_in + st.Storage.Merge.rows_in;
    l.merge_wb <- l.merge_wb + writebacks

  (* The NVM recovery phases the engine reports; also recorded as child
     spans of the open span, so the layers' self-time shares see them. *)
  let nvm_recovered l r (stats : Engine.recovery_stats) =
    match stats.Engine.detail with
    | Engine.Rv_nvm d ->
        Trace.part "nvm_alloc.heap_open" d.heap_open_ns;
        Trace.part "storage.attach" d.attach_ns;
        Trace.part "pstruct.verify" d.verify_ns;
        Trace.part "txn.rollback" d.rollback_ns;
        Trace.part "obs.blackbox" d.blackbox_ns;
        Samples.add l.heap_open (ms d.heap_open_ns);
        Samples.add l.attach (ms d.attach_ns);
        Samples.add l.verify (ms d.verify_ns);
        Samples.add l.rollback (ms d.rollback_ns);
        Samples.add l.blackbox (ms d.blackbox_ns);
        Samples.add l.heap_blocks (float_of_int d.heap_blocks);
        Samples.add l.bb_records (float_of_int d.blackbox_records)
    | _ -> attempt r ~what:"nvm recovery detail" false

  let log_recovered l r = function
    | Engine.Rv_log d ->
        Trace.part "wal.checkpoint_load" d.checkpoint_load_ns;
        Trace.part "wal.replay_decode" d.replay_decode_ns;
        Trace.part "wal.replay_apply" d.replay_apply_ns;
        l.log_records <- d.log_records;
        l.log_bytes <- d.log_bytes
    | _ -> attempt r ~what:"log recovery detail" false

  (* A measured round's wall time, traced or not: the two medians give
     the tracing overhead. *)
  let round_wall l ~traced ns = Samples.add (if traced then l.traced_wall else l.plain_wall) (float_of_int ns)

  let median_or_nan s = if Samples.count s = 0 then nan else Samples.median s

  let shares = [ "core"; "storage"; "txn"; "query"; "wal"; "nvm_alloc"; "pstruct"; "obs" ]

  (* Every per-layer metric, the same list in every workload. *)
  let print r l =
    let ops = float_of_int (max 1 l.ops) in
    let per_op n = float_of_int n /. ops in
    let per n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d in
    layer r "nvm.loads_per_op" "count" (per_op l.loads);
    layer r "nvm.stores_per_op" "count" (per_op l.stores);
    layer r "nvm.writebacks_per_op" "count" (per_op l.writebacks);
    layer r "nvm.fences_per_op" "count" (per_op l.fences);
    layer r "nvm.device_us_per_op" "us" (us l.sim_ns /. ops);
    nvm_probe r;
    layer r "alloc.live_blocks" "count" (float_of_int l.live_blocks);
    layer r "recover.heap_open_ms" "ms" (median_or_nan l.heap_open);
    layer r "recover.heap_blocks" "count" (median_or_nan l.heap_blocks);
    layer r "recover.attach_ms" "ms" (median_or_nan l.attach);
    layer r "recover.verify_ms" "ms" (median_or_nan l.verify);
    layer r "recover.rollback_ms" "ms" (median_or_nan l.rollback);
    layer r "recover.blackbox_ms" "ms" (median_or_nan l.blackbox);
    layer r "recover.blackbox_records" "count" (median_or_nan l.bb_records);
    layer r "recover.first_lookup_ms" "ms" (median_or_nan l.first_lookup);
    layer r "scan.rows_in_per_query" "count" (per l.rows_in l.queries);
    layer r "scan.blocks_per_query" "count" (per l.blocks l.queries);
    layer r "merge.rows_in" "count" (per l.merge_rows_in l.merges);
    layer r "merge.writebacks" "count" (per l.merge_wb l.merges);
    layer r "log.records" "count" (float_of_int l.log_records);
    layer r "log.bytes" "bytes" (float_of_int l.log_bytes);
    layer r "par.busy_share" "ratio"
      (float_of_int l.par_busy /. float_of_int (max 1 (Par.jobs () * l.par_wall)));
    List.iter (fun name -> layer r ("share." ^ name) "ratio" (Trace.share name)) shares;
    let after = gc_snap () in
    layer r "gc.minor_words_per_op" "words" ((after.minor_words -. l.gc0.minor_words) /. ops);
    layer r "gc.major_collections" "count"
      (float_of_int (after.major_collections - l.gc0.major_collections));
    Gcmon.poll ();
    layer r "gc.pause_ms" "ms" (ms !Gcmon.pause_ns);
    layer r "trace.overhead_pct" "%"
      (100.0 *. ((median_or_nan l.traced_wall /. median_or_nan l.plain_wall) -. 1.0))
end
