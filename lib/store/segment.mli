(** One session's trace as a framed, indexed segment.

    A segment holds the session's JSONL trace split into line-aligned
    data frames, followed by one index frame and one end frame (see
    {!Frame} for the wire format).  The index is built {e while the
    trace streams through the writer} — chunk offsets, warning steps,
    resource-name postings, per-block hit counts and the embedded
    per-run counters — so fleet-wide queries never decompress data
    frames, and per-run reads seek by chunk instead of scanning.

    The end frame is the completeness marker: a segment without one
    (e.g. a process killed mid-write) fails to load with a typed
    {!Hth.Error.Load_failure}, never a crash — and the warehouse
    publishes segments atomically, so readers see complete segments or
    none at all. *)

type chunk = {
  c_pos : int;  (** byte offset of the data frame in the segment *)
  c_raw_off : int;  (** offset of the chunk's first byte in the raw trace *)
  c_first_step : int;  (** step index of the chunk's first line *)
  c_lines : int;
}

type warning = { w_step : int; w_rule : string; w_severity : string }

type index = {
  ix_chunks : chunk list;  (** file order *)
  ix_warnings : warning list;  (** step order *)
  ix_names : (string * int list) list;
      (** resource/name -> steps of the ["flow"] lines naming it
          (res_name / target_name / server_name), sorted by name *)
  ix_blocks : (int * int * int) list;  (** (pid, addr, count), trace order *)
  ix_counters : (string * int) list;  (** embedded per-run counters *)
}

val index_entries : index -> int
(** Total postings in an index — the [store.index.entries] unit. *)

type sealed = {
  s_bytes : string;  (** the complete segment image, as stored *)
  s_steps : int;
  s_raw_bytes : int;
  s_index : index;
}

(** Streaming writer: feed line-aligned trace chunks (what
    {!Obs.Trace.chunk_target} delivers), seal once. *)
module Writer : sig
  type t

  val create : ?chunk_bytes:int -> unit -> t
  (** [chunk_bytes] (default 64 KiB) is the data-frame granularity the
      {!target} sink asks for; it must be identical across writers for
      segments to be byte-comparable, so leave the default alone
      outside tests. *)

  val add_chunk : t -> string -> unit
  (** Append one line-aligned chunk of raw JSONL trace bytes.
      @raise Invalid_argument after {!seal}. *)

  val target : t -> Obs.Trace.target
  (** A trace sink feeding this writer, e.g. for
      [Hth.Engine.run_outcome ?trace]. *)

  val seal : t -> sealed
  (** Close the segment: writes the index and end frames, bumps the
      [store.*] counters.  Idempotent per writer via the sealed flag.
      @raise Invalid_argument on double seal. *)
end

type loaded = {
  l_raw : string;  (** the byte-exact reconstructed JSONL trace *)
  l_index : index;
  l_steps : int;
  l_raw_bytes : int;
}

val load : path:string -> string -> (loaded, Hth.Error.t) result
(** Decode a full segment image, verifying frame checksums, the end
    frame, and that the reconstruction matches its declared size and
    line count.  [path] only labels the {!Hth.Error.Load_failure}. *)

val load_index : path:string -> string -> (index * int * int, Hth.Error.t) result
(** [load_index ~path bytes] is [(index, steps, raw_bytes)] without
    decompressing any data frame — the fleet-query fast path. *)
