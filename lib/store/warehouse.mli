(** The on-disk warehouse: every run's segment in one append-only pack
    under one fleet manifest.

    Layout: [DIR/MANIFEST.jsonl] plus [DIR/segments.pack].  An append
    writes the run's sealed segment at the pack's end and flushes it,
    then writes and flushes the manifest line that locates it
    ([segment] is ["segments.pack#<offset>"], [framed_bytes] long).  A
    run is visible only through its manifest line, so a reader (or a
    SIGTERM-drained server) observes complete runs or no run, never a
    torn one; bytes a killed writer left past the last located run are
    dead space that later appends write after.  Run ids are uniquified
    against everything already in the manifest ([run], [run~2], ...),
    so re-ingesting a scenario extends the store rather than clobbering
    history. *)

type t
(** An open warehouse with append rights.  Single-writer: appends are
    not internally locked; serialize them in the caller (the batch
    coordinator and the serve collector are both single consumers). *)

val open_ : string -> (t, Hth.Error.t) result
(** Create or reopen a warehouse directory; reads any existing
    manifest to learn taken run ids, and opens the pack once for
    appending at its current end. *)

val dir : t -> string

val total : t -> int
(** Manifest entries: pre-existing plus appended. *)

val appended : t -> int
(** Entries appended through this handle. *)

val raw_bytes : t -> int
(** Raw trace bytes appended through this handle. *)

val framed_bytes : t -> int
(** Framed (on-disk) bytes appended through this handle. *)

val append : t -> entry:Manifest.entry -> sealed:Segment.sealed -> Manifest.entry
(** Store one run: [entry]'s size/segment fields are filled from
    [sealed] and its run id uniquified; returns the entry as
    committed.  @raise Sys_error on filesystem failure: the run stays
    invisible, and the handle must be closed — a store reopened with
    {!open_} appends after whatever the failed write left. *)

val record :
  t ->
  run:string ->
  scenario:string ->
  policy:string ->
  ?seed:int ->
  ?fault:string ->
  expected:string ->
  matches:(Hth.Report.verdict -> bool) ->
  (Hth.Engine.result, Hth.Error.t) result ->
  Segment.sealed ->
  Manifest.entry
(** [record t ~run ... outcome sealed] stores one session: its entry
    carries the verdict label and [matches]'s answer for it, the
    warning and distinct counts, the degraded flag and the
    {!Manifest.digest} of [sealed]'s counters; a typed failure is
    recorded as [error:<kind>], not matching, with zero counts.  Then
    {!append}s it (same failures) and returns the entry as committed.
    [fault] is the fault-plan spec, if one was given. *)

val close : t -> unit

val sanitize_run : string -> string
(** Scenario name -> run id / file stem: '/' and ' ' become '_' (batch
    [--trace-dir] names its files with it too). *)

(** {2 Read side} *)

type view = { v_dir : string; v_entries : Manifest.entry list }
(** A loaded manifest, entry order = append order. *)

val load : string -> (view, Hth.Error.t) result

val find : view -> string -> Manifest.entry option
(** Look up by run id (also accepts the unsanitized scenario name when
    unambiguous). *)

val raw_trace : view -> Manifest.entry -> (string, Hth.Error.t) result
(** Full decode of the run's segment: the byte-exact JSONL trace.  A
    locator that is not a pack locator, or a byte range outside the
    pack, is a {!Hth.Error.Load_failure} like any corrupt segment. *)

val read_index : view -> Manifest.entry -> (Segment.index, Hth.Error.t) result
(** The run's index without decompressing data frames (same failures
    as {!raw_trace}). *)
