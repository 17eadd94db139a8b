(* meter: DRM metering straight on the chunk store. 50k tiny meters,
   Zipf(1.2) read-modify-write bumps, 16 bumps per op (one commit), every
   16th commit durable; in memory with Sim_disk and no idle windows, so
   the cleaner, checkpoints, location map and chunk cache do the work. *)

open Tdb_platform
open Tdb_chunk
open Tdb_tpcb

let bumps_per_op = 16
let durable_every = 16
let alpha = 1.2

(* meter id (4) + use count (8) + last-use stamp (8) *)
let payload ~id ~count =
  let module P = Tdb_pickle.Pickle in
  let w = P.writer () in
  P.int32_fixed w id;
  P.int64 w (Int64.of_int count);
  P.int64 w (Int64.of_int ((id * 7) + count));
  P.contents w

let count_of s = Int64.to_int (Tdb_pickle.Pickle.read_int64 (Tdb_pickle.Pickle.reader ~off:4 s))

let scale ~tiny = if tiny then Meter.quick_scale else Meter.default_scale

(* Meter.run's configuration: Triple-XTEA + SHA-1 at 75% maximum
   utilization, one domain, the whole cache budget in the chunk cache. *)
let config (s : Meter.scale) =
  {
    Config.default with
    Config.security = true;
    max_utilization = 0.75;
    checkpoint_every = 100_000;
    checkpoint_residual_bytes = max (384 * 1024) (4 * s.Meter.cache_bytes);
    chunk_cache_bytes = s.Meter.cache_bytes;
    cipher = Config.Triple_xtea;
    hash = Config.Sha1;
    domains = 1;
    shards = 1;
  }

let secret () = Secret_store.of_seed "perfbench-meter"

let setup ~tiny ~seed ~fault ~dir:_ : Inst.t =
  let s = scale ~tiny in
  let config = config s in
  let clock = Sim_disk.clock () in
  let handle, raw = Untrusted_store.open_mem () in
  let _, raw_counter = One_way_counter.open_mem () in
  let store = Probe.timed_store (Sim_disk.wrap_store Sim_disk.paper_platform clock raw) in
  let counter = Probe.timed_counter (Sim_disk.wrap_counter Sim_disk.paper_platform clock raw_counter) in
  let cs = Shard_store.create ~config ~secret:(secret ()) ~counters:[| counter |] [| store |] in
  let n = s.Meter.meters in
  let cids = Array.make n 0 in
  let loaded = ref 0 in
  while !loaded < n do
    let upto = min n (!loaded + 2_000) in
    for id = !loaded to upto - 1 do
      let cid = Shard_store.allocate cs in
      cids.(id) <- cid;
      Shard_store.write cs cid (payload ~id ~count:0)
    done;
    Shard_store.commit ~durable:false cs;
    loaded := upto
  done;
  Shard_store.checkpoint cs;
  Shard_store.durable_barrier cs;
  let rng = Tdb_crypto.Drbg.create ~seed:(Printf.sprintf "perfbench-meter-%d" seed) in
  (* hot ranks scattered over the load order, as in Meter.run *)
  let rank_to_id = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Tdb_crypto.Drbg.int rng (i + 1) in
    let tmp = rank_to_id.(i) in
    rank_to_id.(i) <- rank_to_id.(j);
    rank_to_id.(j) <- tmp
  done;
  let z = Meter.zipf ~alpha n in
  (* [counts] is the model now; [durable] the model at the last durable
     commit, which is what a crash must leave *)
  let counts = Array.make n 0 and durable = Array.make n 0 in
  let touched = ref [] and commits = ref 0 and stale_reads = ref 0 in
  let op () =
    let bumped = ref [] in
    for _ = 1 to bumps_per_op do
      let id = rank_to_id.(Meter.sample z rng) in
      let cur = Probe.time Probe.chunk_read (fun () -> Shard_store.read cs cids.(id)) in
      if not (Int.equal (count_of cur) counts.(id)) then incr stale_reads;
      counts.(id) <- counts.(id) + 1;
      Shard_store.write cs cids.(id) (payload ~id ~count:counts.(id));
      bumped := id :: !bumped;
      Probe.work.user_read <- Probe.work.user_read + String.length cur;
      Probe.work.user_written <- Probe.work.user_written + String.length cur
    done;
    let durable_commit = (!commits + 1) mod durable_every = 0 in
    (match Probe.time Probe.chunk_commit (fun () -> Shard_store.commit ~durable:durable_commit cs) with
    | () -> ()
    | exception e ->
        Shard_store.abort_batch cs;
        List.iter (fun id -> counts.(id) <- counts.(id) - 1) !bumped;
        raise e);
    incr commits;
    (* the faulted model forgets the first bump *)
    (match !bumped with id :: _ when fault && !commits = 1 -> counts.(id) <- counts.(id) - 1 | _ -> ());
    touched := List.rev_append !bumped !touched;
    if durable_commit then begin
      List.iter (fun id -> durable.(id) <- counts.(id)) !touched;
      touched := []
    end
  in
  let finish () =
    let online =
      Inst.check "reads return the model's count" (!stale_reads = 0)
        (Printf.sprintf "%d stale reads" !stale_reads)
    in
    Untrusted_store.Mem.crash_hard handle;
    let t0 = Probe.now_ns () in
    let cs2 = Shard_store.open_existing ~config ~secret:(secret ()) ~counters:[| raw_counter |] [| raw |] in
    let reopen_ms = float_of_int (Probe.now_ns () - t0) /. 1e6 in
    let bad = ref 0 and first = ref "" in
    Array.iteri
      (fun id cid ->
        let c = count_of (Shard_store.read cs2 cid) in
        if not (Int.equal c durable.(id)) then begin
          if !bad = 0 then first := Printf.sprintf "; meter %d reads %d, model %d" id c durable.(id);
          incr bad
        end)
      cids;
    ( [
        online;
        Inst.check "reopened counts equal the model at the last durable commit" (!bad = 0)
          (Printf.sprintf "%d of %d meters differ%s" !bad n !first);
      ],
      reopen_ms )
  in
  {
    Inst.op;
    round = 100;
    idle = None;
    warm_cycle = true;
    cs;
    stores = [| raw |];
    clock;
    os = None;
    server_stats = None;
    config =
      Inst.config_of config ~object_cache:0
        ~flush:(Printf.sprintf "in memory; every %dth commit durable" durable_every);
    finish;
  }
