type t = { chunks : string Queue.t; mutable offset : int; mutable length : int }

let create () = { chunks = Queue.create (); offset = 0; length = 0 }
let is_empty t = t.length = 0
let length t = t.length

let push t s =
  if String.length s > 0 then begin
    Queue.add s t.chunks;
    t.length <- t.length + String.length s
  end

(* A read that the head chunk covers is one [String.sub], or no copy at
   all when it is the whole chunk; only a read spanning chunks blits. *)
let take t ~max =
  if max <= 0 || t.length = 0 then ""
  else begin
    let n = min max t.length in
    let head = Queue.peek t.chunks in
    let avail = String.length head - t.offset in
    t.length <- t.length - n;
    if n < avail then begin
      let s = String.sub head t.offset n in
      t.offset <- t.offset + n;
      s
    end
    else if n = avail then begin
      ignore (Queue.pop t.chunks);
      let s = if t.offset = 0 then head else String.sub head t.offset n in
      t.offset <- 0;
      s
    end
    else begin
      let buf = Bytes.create n in
      let filled = ref 0 in
      while !filled < n do
        let head = Queue.peek t.chunks in
        let avail = String.length head - t.offset in
        let k = min avail (n - !filled) in
        Bytes.blit_string head t.offset buf !filled k;
        filled := !filled + k;
        if k = avail then begin
          ignore (Queue.pop t.chunks);
          t.offset <- 0
        end
        else t.offset <- t.offset + k
      done;
      Bytes.unsafe_to_string buf
    end
  end

let take_all t = take t ~max:t.length
