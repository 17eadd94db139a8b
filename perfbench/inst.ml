(* What a workload hands the harness after set-up: the timed operation,
   its maintenance window, and the handles whose public counters the
   harness reads. *)

open Tdb_platform
open Tdb_chunk

type check = { name : string; ok : bool; detail : string }

let check name ok detail = { name; ok; detail }

type t = {
  op : unit -> unit;  (** one timed operation; raising counts it as failed *)
  round : int;  (** ops between maintenance windows (and trace toggles) *)
  idle : (unit -> unit) option;  (** idle maintenance run after each round *)
  warm_cycle : bool;
      (** warm up until a checkpoint and a clean pass have both happened *)
  cs : Shard_store.t;
  stores : Untrusted_store.t array;  (** database stores, for platform counters *)
  clock : Tdb_tpcb.Sim_disk.clock;
  os : Tdb_objstore.Object_store.t option;  (** for object-cache counters *)
  server_stats : (unit -> int * int) option;
      (** group-commit (barriers, commits coalesced into them) *)
  config : (string * string) list;  (** effective settings, printed *)
  finish : unit -> check list * float;
      (** correctness checks after the timed phase, including a reopen of
          the image; returns the checks and the reopen time in ms *)
}

let config_of (c : Config.t) ~object_cache ~flush : (string * string) list =
  [
    ("domains", string_of_int c.Config.domains);
    ("shards", string_of_int c.Config.shards);
    ("tiers", string_of_int c.Config.tiers);
    ( "cipher",
      match c.Config.cipher with
      | Config.Aes128 -> "aes128"
      | Config.Triple_aes -> "triple-aes"
      | Config.Triple_xtea -> "triple-xtea" );
    ("hash", match c.Config.hash with Config.Sha1 -> "sha1" | Config.Sha256 -> "sha256");
    ("security", string_of_bool c.Config.security);
    ("max_utilization", Printf.sprintf "%.2f" c.Config.max_utilization);
    ("chunk_cache_bytes", string_of_int c.Config.chunk_cache_bytes);
    ("object_cache_bytes", string_of_int object_cache);
    ("segment_size", string_of_int c.Config.segment_size);
    ("checkpoint_every", string_of_int c.Config.checkpoint_every);
    ("checkpoint_residual_bytes", string_of_int c.Config.checkpoint_residual_bytes);
    ("flush", flush);
  ]
