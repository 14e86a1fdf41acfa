type frame = {
  mutable page_id : int; (* -1 = free *)
  buf : Bytes.t;
  mutable dirty : bool;
  mutable last_used : int; (* LRU clock *)
}

type stats = { hits : int; misses : int; evictions : int; writes : int }

type t = {
  page_bytes : int;
  frames : frame array;
  page_table : (int, int) Hashtbl.t; (* page id -> frame index *)
  fd : Unix.file_descr;
  path : string;
  owns_file : bool;
  mutable next_page : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writes : int;
  mutable closed : bool;
}

let create ?(frames = 64) ?path ~page_bytes () =
  if frames < 1 || page_bytes < 1 then invalid_arg "Buffer_pool.create";
  let path, owns_file =
    match path with
    | Some p -> (p, false)
    | None -> (Filename.temp_file "genbase_pool" ".pages", true)
  in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o600 in
  {
    page_bytes;
    frames =
      Array.init frames (fun _ ->
          { page_id = -1; buf = Bytes.create page_bytes; dirty = false; last_used = 0 });
    page_table = Hashtbl.create 256;
    fd;
    path;
    owns_file;
    next_page = 0;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    writes = 0;
    closed = false;
  }

let page_bytes t = t.page_bytes
let page_count t = t.next_page
let resident_pages t = Hashtbl.length t.page_table
let stats t =
  { hits = t.hits; misses = t.misses; evictions = t.evictions; writes = t.writes }

let write_out t frame =
  let off = frame.page_id * t.page_bytes in
  ignore (Unix.lseek t.fd off Unix.SEEK_SET);
  let rec write pos =
    if pos < t.page_bytes then begin
      let n = Unix.write t.fd frame.buf pos (t.page_bytes - pos) in
      write (pos + n)
    end
  in
  write 0;
  t.writes <- t.writes + 1;
  frame.dirty <- false

let read_in t frame page_id =
  let off = page_id * t.page_bytes in
  ignore (Unix.lseek t.fd off Unix.SEEK_SET);
  let rec read pos =
    if pos < t.page_bytes then
      match Unix.read t.fd frame.buf pos (t.page_bytes - pos) with
      | 0 ->
        (* Short file: the page was allocated but never spilled; zeros. *)
        Bytes.fill frame.buf pos (t.page_bytes - pos) '\000'
      | n -> read (pos + n)
  in
  read 0

(* Pick a victim frame: free if any, otherwise least recently used. *)
let victim t =
  let best = ref 0 in
  (try
     Array.iteri
       (fun i f ->
         if f.page_id = -1 then begin
           best := i;
           raise Exit
         end
         else if f.last_used < t.frames.(!best).last_used then best := i)
       t.frames
   with Exit -> ());
  !best

let pool_faults = Gb_obs.Telemetry.counter ~help:"page" "storage_pool_page_faults"

let frame_for t page_id =
  if t.closed then invalid_arg "Buffer_pool: closed";
  if page_id < 0 || page_id >= t.next_page then
    invalid_arg "Buffer_pool: unknown page";
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.page_table page_id with
  | Some fi ->
    t.hits <- t.hits + 1;
    let f = t.frames.(fi) in
    f.last_used <- t.tick;
    f
  | None ->
    t.misses <- t.misses + 1;
    Gb_obs.Telemetry.add pool_faults 1;
    let fi = victim t in
    let f = t.frames.(fi) in
    if f.page_id >= 0 then begin
      if f.dirty then write_out t f;
      Hashtbl.remove t.page_table f.page_id;
      t.evictions <- t.evictions + 1
    end;
    read_in t f page_id;
    f.page_id <- page_id;
    f.dirty <- false;
    f.last_used <- t.tick;
    Hashtbl.replace t.page_table page_id fi;
    f

let allocate t =
  if t.closed then invalid_arg "Buffer_pool: closed";
  let id = t.next_page in
  t.next_page <- t.next_page + 1;
  (* Materialize the zeroed page in a frame right away. *)
  t.tick <- t.tick + 1;
  let fi = victim t in
  let f = t.frames.(fi) in
  if f.page_id >= 0 then begin
    if f.dirty then write_out t f;
    Hashtbl.remove t.page_table f.page_id;
    t.evictions <- t.evictions + 1
  end;
  Bytes.fill f.buf 0 t.page_bytes '\000';
  f.page_id <- id;
  f.dirty <- true;
  f.last_used <- t.tick;
  Hashtbl.replace t.page_table id fi;
  id

let with_page t id fn =
  let f = frame_for t id in
  f.dirty <- true;
  fn f.buf

let read_page t id fn =
  let f = frame_for t id in
  fn f.buf

let flush t =
  Array.iter (fun f -> if f.page_id >= 0 && f.dirty then write_out t f) t.frames

let close t =
  if not t.closed then begin
    flush t;
    t.closed <- true;
    Unix.close t.fd;
    if t.owns_file then try Sys.remove t.path with Sys_error _ -> ()
  end
