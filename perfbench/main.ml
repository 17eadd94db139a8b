(* perfbench: one part of a benchmark run. run.py runs several parts,
   each in a process of its own, and merges their results.

     main.exe --workload W --seed N --part K --seconds S --trace 0|1
              [--min-ops M] [--tiny] [--fault]

   sets the workload up (timed: setup_s), warms up, runs closed-loop ops
   for S seconds and at least M ops, checks the results and a reopened
   image against the workload's model, and prints every metric with its
   unit. The last line of standard output is one JSON object with every
   metric and the names of the end-to-end and per-layer groups. --tiny
   shrinks the data for the self-test; --fault makes the model drop one
   delta so the checks must fail. Exit code 1 means a check failed, 2 a
   usage or run error. *)

open Tdb_platform
open Tdb_chunk

let end_to_end =
  [
    ("ops_per_s", "1/s");
    ("op_p50_ms", "ms");
    ("op_p999_ms", "ms");
    ("read_amp", "ratio");
    ("space_amp", "ratio");
    ("setup_s", "s");
  ]

(* op_p99_ms is not gated end to end: on tpcb the foreground checkpoints
   are 0.7-0.9% of ops, so p99 sits on the edge of the checkpoint band and
   swings between about 1 and 2 ms from one process to the next. *)
let per_layer =
  [
    ("op_p99_ms", "ms");
    ("write_amp", "ratio");
    ("idle_ms_per_op", "ms");
    ("modelled_io_ms_per_op", "ms");
    ("op_fail_frac", "ratio");
    ("trace.ops_per_s_ratio", "ratio");
    ("collection.update_ms", "ms");
    ("collection.insert_ms", "ms");
    ("collection.range_ms", "ms");
    ("collection.rows_per_result", "count");
    ("objstore.commit_ms", "ms");
    ("objstore.cache_hit_rate", "ratio");
    ("objstore.evictions_per_op", "count");
    ("gc.alloc_words_per_op", "count");
    ("gc.major_per_kop", "count");
    ("chunk.read_ms", "ms");
    ("chunk.commit_ms", "ms");
    ("chunk.cache_hit_rate", "ratio");
    ("chunk.appended_bytes_per_op", "bytes");
    ("chunk.map_bytes_per_op", "bytes");
    ("chunk.durable_commits_per_op", "count");
    ("chunk.checkpoints_per_kop", "count");
    ("chunk.checkpoint_stall_ms", "ms");
    ("cleaner.fg_passes_per_kop", "count");
    ("cleaner.fg_stall_share", "ratio");
    ("cleaner.bytes_relocated_per_op", "bytes");
    ("cleaner.segments_cleaned_per_kop", "count");
    ("cleaner.grow_segments", "count");
    ("cleaner.idle_pass_ms", "ms");
    ("crypto.sealed_bytes_per_op", "bytes");
    ("crypto.unseals_per_op", "count");
    ("pool.batches_per_op", "count");
    ("pool.wait_ms_per_op", "ms");
    ("platform.writes_per_op", "count");
    ("platform.bytes_written_per_op", "bytes");
    ("platform.reads_per_op", "count");
    ("platform.bytes_read_per_op", "bytes");
    ("platform.syncs_per_op", "count");
    ("platform.sync_ms", "ms");
    ("counter.increments_per_op", "count");
    ("counter.increment_ms", "ms");
    ("server.rpc_ms", "ms");
    ("server.rpcs_per_op", "count");
    ("server.gc_coalesce_ratio", "ratio");
    ("recovery.reopen_ms", "ms");
  ]

let workloads =
  [ ("tpcb", W_tpcb.setup); ("meter", W_meter.setup); ("report", W_report.setup); ("wire_tpcb", W_wire.setup) ]

let warm_cap_s = 60.0

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

type args = {
  workload : string;
  seed : int;
  part : int;
  seconds : float;
  min_ops : int;
  trace : bool;
  tiny : bool;
  fault : bool;
}

let parse () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0) and trace = ref (-1) in
  let part = ref 0 and min_ops = ref 10_000 in
  let tiny = ref false and fault = ref false in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--part" :: v :: rest -> part := int_of_string v; go rest
    | "--min-ops" :: v :: rest -> min_ops := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string v; go rest
    | "--tiny" :: rest -> tiny := true; go rest
    | "--fault" :: rest -> fault := true; go rest
    | [] -> ()
    | a :: _ -> fail "unknown argument %s" a
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> fail "bad argument value");
  if not (List.mem_assoc !workload workloads) then
    fail "--workload must be one of %s" (String.concat ", " (List.map fst workloads));
  if !seed < 0 || !part < 0 || !part > 999 || !seconds <= 0.0 || !min_ops < 1 || not (!trace = 0 || !trace = 1) then
    fail "usage: --workload W --seed N --part K --seconds S --trace 0|1 [--min-ops M] [--tiny] [--fault]";
  {
    workload = !workload; seed = !seed; part = !part; seconds = !seconds; min_ops = !min_ops; trace = !trace = 1;
    tiny = !tiny; fault = !fault;
  }

(* TDB_DOMAINS, TDB_SHARDS and TDB_TIERS silently change Config.default. *)
let refuse_tdb_env () =
  let set =
    List.filter
      (fun kv -> String.length kv >= 4 && String.equal (String.sub kv 0 4) "TDB_")
      (Array.to_list (Unix.environment ()))
  in
  if set <> [] then fail "refusing to run with TDB_* set: %s" (String.concat " " set)

(* ---- counters read from the public stats of each layer ---- *)

let snapshot (i : Inst.t) : (string * float) list =
  let st = Shard_store.stats i.Inst.cs in
  let io f = float_of_int (Array.fold_left (fun a s -> a + f (Untrusted_store.stats s)) 0 i.Inst.stores) in
  let oh, om, oe = match i.Inst.os with Some os -> Tdb_objstore.Object_store.cache_stats os | None -> (0, 0, 0) in
  let p = Tdb_parallel.Pool.stats () in
  let g = Gc.quick_stat () in
  let gb, gc = match i.Inst.server_stats with Some f -> f () | None -> (0, 0) in
  let w = Probe.work in
  let f = float_of_int in
  Chunk_store.
    [
      ("commits", f st.commits);
      ("durable_commits", f st.durable_commits);
      ("checkpoints", f st.checkpoints);
      ("clean_passes", f st.clean_passes);
      ("segments_cleaned", f st.segments_cleaned);
      ("bytes_relocated", f st.bytes_relocated);
      ("bytes_data", f st.bytes_data);
      ("bytes_map", f st.bytes_map);
      ("bytes_commit", f st.bytes_commit);
      ("grown", f (st.grow_policy + st.grow_fallback + st.grow_backstop));
      ("chunk_hits", f st.cache_hits);
      ("chunk_misses", f st.cache_misses);
      ("obj_hits", f oh);
      ("obj_misses", f om);
      ("obj_evictions", f oe);
      ("pool_batches", f p.Tdb_parallel.Pool.p_batches);
      ("pool_wait_ns", f p.Tdb_parallel.Pool.p_wait_ns);
      ("io_reads", io (fun s -> s.Untrusted_store.reads));
      ("io_bytes_read", io (fun s -> s.Untrusted_store.bytes_read));
      ("io_writes", io (fun s -> s.Untrusted_store.writes));
      ("io_bytes_written", io (fun s -> s.Untrusted_store.bytes_written));
      ("io_syncs", io (fun s -> s.Untrusted_store.syncs));
      ("alloc_words", g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words);
      ("major_gcs", f g.Gc.major_collections);
      ("sim_s", i.Inst.clock.Tdb_tpcb.Sim_disk.elapsed);
      ("user_read", f w.Probe.user_read);
      ("user_written", f w.Probe.user_written);
      ("results", f w.Probe.results);
      ("rows", f w.Probe.rows);
      ("rpcs", f w.Probe.rpcs);
      ("gc_barriers", f gb);
      ("gc_coalesced", f gc);
    ]

let accumulate tbl (before : (string * float) list) (after : (string * float) list) =
  List.iter2
    (fun (k, a) (_, b) ->
      let prev = Option.value (Hashtbl.find_opt tbl k) ~default:0.0 in
      Hashtbl.replace tbl k (prev +. (b -. a)))
    before after

let ratio a b = if b = 0.0 then 0.0 else a /. b

let progress (i : Inst.t) =
  let st = Shard_store.stats i.Inst.cs in
  (st.Chunk_store.checkpoints, st.Chunk_store.clean_passes)

(* ---- the timed loop ---- *)

type run = {
  lat : Probe.samples;
  mutable attempted : int;
  mutable failed : int;
  mutable first_error : string;
  mutable op_ns : int;  (** wall time of op phases, idle windows excluded *)
  mutable idle_ns : int;
  mutable sim_ops : float;  (** modelled I/O charged during op phases *)
  mutable round_rates : float list;  (** ops per second of each round *)
  mutable space_amps : float list;  (** store size over live bytes after each round *)
  (* traced rounds only *)
  traced : (string, float) Hashtbl.t;
  mutable t_ops : int;
  mutable t_op_ns : int;
  mutable u_ops : int;
  mutable u_op_ns : int;
  mutable t_idle_ns : int;
  mutable t_idles : int;
  mutable cp_stall_ns : int;
  mutable cp_stalls : int;
  mutable clean_stall_ns : int;
  mutable clean_stalls : int;
  mutable t_lat_ns : int;
}

let new_run () =
  {
    lat = Probe.samples (); attempted = 0; failed = 0; first_error = ""; op_ns = 0; idle_ns = 0; sim_ops = 0.0;
    round_rates = []; space_amps = [];
    traced = Hashtbl.create 64; t_ops = 0; t_op_ns = 0; u_ops = 0; u_op_ns = 0; t_idle_ns = 0; t_idles = 0;
    cp_stall_ns = 0; cp_stalls = 0; clean_stall_ns = 0; clean_stalls = 0; t_lat_ns = 0;
  }

let one_op (i : Inst.t) (r : run) =
  r.attempted <- r.attempted + 1;
  let t0 = Probe.now_ns () in
  (match i.Inst.op () with
  | () -> ()
  | exception e ->
      if r.failed = 0 then r.first_error <- Printexc.to_string e;
      r.failed <- r.failed + 1);
  Probe.now_ns () - t0

(* One round: [i.round] ops, then the idle window. [record] keeps the
   latencies; [traced] switches the spans on and charges the round's
   counter deltas to the per-layer table. *)
let round (i : Inst.t) (r : run) ~record ~traced =
  let before = if traced then Some (snapshot i) else None in
  Probe.tracing := traced;
  let sim0 = i.Inst.clock.Tdb_tpcb.Sim_disk.elapsed in
  let start = Probe.now_ns () in
  for _ = 1 to i.Inst.round do
    if traced then begin
      let cp0, cl0 = progress i in
      let ns = one_op i r in
      let cp1, cl1 = progress i in
      r.t_lat_ns <- r.t_lat_ns + ns;
      if cp1 > cp0 then (r.cp_stalls <- r.cp_stalls + 1; r.cp_stall_ns <- r.cp_stall_ns + ns);
      if cl1 > cl0 then (r.clean_stalls <- r.clean_stalls + 1; r.clean_stall_ns <- r.clean_stall_ns + ns);
      if record then Probe.add r.lat ns
    end
    else begin
      let ns = one_op i r in
      if record then Probe.add r.lat ns
    end
  done;
  let ops_ns = Probe.now_ns () - start in
  let sim1 = i.Inst.clock.Tdb_tpcb.Sim_disk.elapsed in
  let idle_ns =
    match i.Inst.idle with
    | None -> 0
    | Some f ->
        let t = Probe.now_ns () in
        f ();
        Probe.now_ns () - t
  in
  Probe.tracing := false;
  if record then begin
    r.op_ns <- r.op_ns + ops_ns;
    r.idle_ns <- r.idle_ns + idle_ns;
    r.sim_ops <- r.sim_ops +. (sim1 -. sim0);
    r.round_rates <- (float_of_int i.Inst.round /. (float_of_int ops_ns /. 1e9)) :: r.round_rates;
    r.space_amps <-
      (float_of_int (Shard_store.store_size i.Inst.cs) /. float_of_int (Shard_store.live_bytes i.Inst.cs))
      :: r.space_amps;
    match before with
    | Some b ->
        accumulate r.traced b (snapshot i);
        r.t_ops <- r.t_ops + i.Inst.round;
        r.t_op_ns <- r.t_op_ns + ops_ns;
        if Option.is_some i.Inst.idle then (r.t_idles <- r.t_idles + 1; r.t_idle_ns <- r.t_idle_ns + idle_ns)
    | None ->
        r.u_ops <- r.u_ops + i.Inst.round;
        r.u_op_ns <- r.u_op_ns + ops_ns
  end

let warm_up (i : Inst.t) =
  let r = new_run () in
  let cp0, cl0 = progress i in
  let t0 = Probe.now_ns () in
  let rounds = ref 0 in
  let warm () =
    let cp, cl = progress i in
    let cycle = (not i.Inst.warm_cycle) || (cp > cp0 && cl > cl0) in
    (!rounds >= 1 && cycle) || float_of_int (Probe.now_ns () - t0) /. 1e9 > warm_cap_s
  in
  while not (warm ()) do
    round i r ~record:false ~traced:false;
    incr rounds
  done;
  let cp, cl = progress i in
  Printf.printf "warmup: %d ops in %.2f s, %d checkpoints, %d clean passes%s\n" r.attempted
    (float_of_int (Probe.now_ns () - t0) /. 1e9)
    (cp - cp0) (cl - cl0)
    (if i.Inst.warm_cycle && (cp = cp0 || cl = cl0) then " (cap reached before a full cycle)" else "");
  if r.failed > 0 then fail "warmup: %d ops failed, first: %s" r.failed r.first_error

let timed (i : Inst.t) ~seconds ~min_ops ~trace =
  let r = new_run () in
  let before = snapshot i in
  let t0 = Probe.now_ns () in
  let n = ref 0 in
  while float_of_int r.op_ns /. 1e9 < seconds || r.attempted < min_ops do
    round i r ~record:true ~traced:(trace && !n mod 2 = 0);
    incr n
  done;
  let wall = float_of_int (Probe.now_ns () - t0) /. 1e9 in
  (r, before, snapshot i, wall)

(* ---- output ---- *)

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let json_metrics decl values =
  String.concat ", "
    (List.map
       (fun (name, unit) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float (List.assoc name values)) unit)
       decl)

let json_names decl = String.concat ", " (List.map (fun (name, _) -> Printf.sprintf "%S" name) decl)

let main () =
  refuse_tdb_env ();
  let a = parse () in
  let setup = List.assoc a.workload workloads in
  Printf.printf "perfbench workload=%s seed=%d part=%d seconds=%g trace=%d%s%s\n" a.workload a.seed a.part a.seconds
    (if a.trace then 1 else 0) (if a.tiny then " tiny" else "") (if a.fault then " fault" else "");
  (* for workloads on files; removed by their checks *)
  let dir = Printf.sprintf ".perfbench_tmp_%d" (Unix.getpid ()) in
  let t0 = Probe.now_ns () in
  let i = setup ~tiny:a.tiny ~seed:((a.seed * 1000) + a.part) ~fault:a.fault ~dir in
  let setup_s = float_of_int (Probe.now_ns () - t0) /. 1e9 in
  Printf.printf "setup_s: %.3f\n" setup_s;
  Printf.printf "config: %s\n" (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) i.Inst.config));
  Gc.compact ();
  warm_up i;
  let r, s0, s1, wall = timed i ~seconds:a.seconds ~min_ops:a.min_ops ~trace:a.trace in
  let d k = List.assoc k s1 -. List.assoc k s0 in
  (* a check that raises (a reopen reporting tampering, say) is a failed
     check, not a crash of the benchmark *)
  let checks, reopen_ms =
    match i.Inst.finish () with
    | r -> r
    | exception e -> ([ Inst.check "checks and reopen complete" false (Printexc.to_string e) ], 0.0)
  in
  let n = r.attempted in
  let nf = float_of_int n in
  let sorted = Probe.sorted r.lat in
  Printf.printf "timed: %d ops (%d failed) in %.2f s wall, %.2f s in ops, %.2f s idle; %d latency samples\n" n
    r.failed wall (float_of_int r.op_ns /. 1e9) (float_of_int r.idle_ns /. 1e9) (Array.length sorted);
  Printf.printf "latency ms: p90 %.3f  p95 %.3f  p99 %.3f  p99.9 %.3f  max %.3f\n" (Probe.percentile_ms sorted 0.90)
    (Probe.percentile_ms sorted 0.95) (Probe.percentile_ms sorted 0.99) (Probe.percentile_ms sorted 0.999)
    (Probe.percentile_ms sorted 1.0);
  Printf.printf "store: %d bytes, %d live bytes at the end of the timed phase\n"
    (Shard_store.store_size i.Inst.cs) (Shard_store.live_bytes i.Inst.cs);
  if r.failed > 0 then Printf.printf "first failure: %s\n" r.first_error;
  List.iter
    (fun (c : Inst.check) -> Printf.printf "check %s %s: %s\n" (if c.Inst.ok then "ok  " else "FAIL") c.Inst.name c.Inst.detail)
    checks;
  let e2e =
    [
      (* the median round resists a transient slowdown of the machine;
         rounds are long enough to hold their share of stalls *)
      ("ops_per_s", median r.round_rates);
      ("op_p50_ms", Probe.percentile_ms sorted 0.50);
      ("op_p999_ms", Probe.percentile_ms sorted 0.999);
      ("read_amp", ratio (d "io_bytes_read") (d "user_read"));
      (* averaged over round ends: the store grows in steps *)
      ("space_amp", List.fold_left ( +. ) 0.0 r.space_amps /. float_of_int (List.length r.space_amps));
      ("setup_s", setup_s);
    ]
  in
  let t k = Option.value (Hashtbl.find_opt r.traced k) ~default:0.0 in
  let tn = float_of_int r.t_ops in
  let per k = ratio (t k) tn in
  let per_k k = 1000.0 *. per k in
  let layer =
    [
      ("op_p99_ms", Probe.percentile_ms sorted 0.99);
      ("write_amp", ratio (d "io_bytes_written") (d "user_written"));
      ("idle_ms_per_op", float_of_int r.idle_ns /. 1e6 /. nf);
      ("modelled_io_ms_per_op", r.sim_ops *. 1000.0 /. nf);
      ("op_fail_frac", float_of_int r.failed /. nf);
      ( "trace.ops_per_s_ratio",
        ratio (ratio tn (float_of_int r.t_op_ns)) (ratio (float_of_int r.u_ops) (float_of_int r.u_op_ns)) );
      ("collection.update_ms", Probe.mean_ms Probe.collection_update);
      ("collection.insert_ms", Probe.mean_ms Probe.collection_insert);
      ("collection.range_ms", Probe.mean_ms Probe.collection_range);
      ("collection.rows_per_result", ratio (t "rows") (t "results"));
      ("objstore.commit_ms", Probe.mean_ms Probe.objstore_commit);
      ("objstore.cache_hit_rate", ratio (t "obj_hits") (t "obj_hits" +. t "obj_misses"));
      ("objstore.evictions_per_op", per "obj_evictions");
      ("gc.alloc_words_per_op", per "alloc_words");
      ("gc.major_per_kop", per_k "major_gcs");
      ("chunk.read_ms", Probe.mean_ms Probe.chunk_read);
      ("chunk.commit_ms", Probe.mean_ms Probe.chunk_commit);
      ("chunk.cache_hit_rate", ratio (t "chunk_hits") (t "chunk_hits" +. t "chunk_misses"));
      ("chunk.appended_bytes_per_op", ratio (t "bytes_data" +. t "bytes_map" +. t "bytes_commit") tn);
      ("chunk.map_bytes_per_op", per "bytes_map");
      ("chunk.durable_commits_per_op", per "durable_commits");
      ("chunk.checkpoints_per_kop", per_k "checkpoints");
      ("chunk.checkpoint_stall_ms", ratio (float_of_int r.cp_stall_ns /. 1e6) (float_of_int r.cp_stalls));
      ("cleaner.fg_passes_per_kop", ratio (1000.0 *. float_of_int r.clean_stalls) tn);
      ("cleaner.fg_stall_share", ratio (float_of_int r.clean_stall_ns) (float_of_int r.t_lat_ns));
      ("cleaner.bytes_relocated_per_op", per "bytes_relocated");
      ("cleaner.segments_cleaned_per_kop", per_k "segments_cleaned");
      ("cleaner.grow_segments", d "grown");
      ("cleaner.idle_pass_ms", ratio (float_of_int r.t_idle_ns /. 1e6) (float_of_int r.t_idles));
      (* sealing happens for fresh chunk and map bytes; the cleaner moves
         ciphertext verbatim *)
      ("crypto.sealed_bytes_per_op", ratio (t "bytes_data" -. t "bytes_relocated" +. t "bytes_map") tn);
      ("crypto.unseals_per_op", per "chunk_misses");
      ("pool.batches_per_op", per "pool_batches");
      ("pool.wait_ms_per_op", ratio (t "pool_wait_ns" /. 1e6) tn);
      ("platform.writes_per_op", per "io_writes");
      ("platform.bytes_written_per_op", per "io_bytes_written");
      ("platform.reads_per_op", per "io_reads");
      ("platform.bytes_read_per_op", per "io_bytes_read");
      ("platform.syncs_per_op", per "io_syncs");
      ("platform.sync_ms", Probe.mean_ms Probe.platform_sync);
      ("counter.increments_per_op", ratio (float_of_int Probe.counter_increment.Probe.calls) tn);
      ("counter.increment_ms", Probe.mean_ms Probe.counter_increment);
      ("server.rpc_ms", Probe.mean_ms Probe.rpc);
      ("server.rpcs_per_op", per "rpcs");
      ("server.gc_coalesce_ratio", ratio (t "gc_coalesced") (t "gc_barriers"));
      ("recovery.reopen_ms", reopen_ms);
    ]
  in
  (* per-layer metrics from the traced rounds print only in a traced run;
     the whole-run ones always *)
  let whole_run =
    [ "op_p99_ms"; "write_amp"; "idle_ms_per_op"; "modelled_io_ms_per_op"; "op_fail_frac"; "cleaner.grow_segments"; "recovery.reopen_ms" ]
  in
  let print_metrics decl values =
    List.iter
      (fun (name, unit) ->
        if a.trace || List.mem name whole_run || List.mem_assoc name end_to_end then
          Printf.printf "metric %s %s %s%s\n" name (json_float (List.assoc name values)) unit
            (if String.equal name "modelled_io_ms_per_op" then " (modelled by Sim_disk)" else ""))
      decl
  in
  print_metrics end_to_end e2e;
  print_metrics per_layer layer;
  let correct = List.for_all (fun (c : Inst.check) -> c.Inst.ok) checks in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"end_to_end\": [%s], \"per_layer\": [%s], \"metrics\": {%s, %s}}\n"
    correct n r.failed (json_names end_to_end) (json_names per_layer) (json_metrics end_to_end e2e)
    (json_metrics per_layer layer);
  exit (if correct then 0 else 1)

let () = main ()
