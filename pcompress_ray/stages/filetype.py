"""File-type taxonomy + detection (M8): the reference's 35-subtype scheme.

Re-expresses pcompress's type-tagging semantics from scratch:
  - primary/subtype bit layout and the full subtype enum
    (utils/utils.h:276-340);
  - magic-signature detection (archive/pc_archive.c:1915-2070
    ``detect_type_by_data`` — every branch mirrored, including the exact
    ELF/MZ-PE/COFF/COM dispatch order);
  - extension → type table (utils/phash/extensions.h — the reference uses a
    perfect-hash lookup; a dict IS a hash lookup, so that's the idiomatic
    Python analog);
  - WAV/PNM identification (utils/utils.c:656-702).

Beyond the reference's data-detection (which leaves gz/bz2/zip/... to the
extension table), ``detect_type_extended`` also sniffs the standard magics
of the compressed formats the taxonomy names, so payload-only corpora
(no filename column) still classify.

Detection is a per-ROW prefix check over media/file rows — a metadata
stage over (comparatively few) binary rows, not the per-chunk hot path;
each check touches ≤ a few hundred leading bytes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# primary types (bit flags) — utils/utils.h:280-283
TYPE_UNKNOWN = 0
TYPE_TEXT = 1
TYPE_BINARY = 2
TYPE_COMPRESSED = 4

# sub-types (numeric values in bits 3..15) — utils/utils.h:287-324
TYPE_EXE32 = 8
TYPE_JPEG = 16
TYPE_MARKUP = 24
TYPE_COMPRESSED_GZ = 32
TYPE_COMPRESSED_LZW = 40
TYPE_COMPRESSED_BZ2 = 48
TYPE_COMPRESSED_ZIP = 56
TYPE_COMPRESSED_ARJ = 64
TYPE_COMPRESSED_ARC = 72
TYPE_ARCHIVE_AR = 80
TYPE_COMPRESSED_LZMA = 88
TYPE_COMPRESSED_LZO = 96
TYPE_AVI = 104
TYPE_MP4 = 112
TYPE_FLAC = 120
TYPE_COMPRESSED_RAR = 128
TYPE_COMPRESSED_LZ = 136
TYPE_COMPRESSED_PPMD = 144
TYPE_COMPRESSED_ZPAQ = 152
TYPE_PACKJPG = 160
TYPE_DNA_SEQ = 168
TYPE_MJPEG = 176
TYPE_AUDIO_COMPRESSED = 184
TYPE_EXE64 = 192
TYPE_BMP = 200
TYPE_TIFF = 208
TYPE_PDF = 216
TYPE_ARCHIVE_TAR = 224
TYPE_DICOM = 232
TYPE_PNM = 240
TYPE_PACKPNM = 248
TYPE_WAV = 256
TYPE_ENGLISH = 264
TYPE_MEDIA_BSC = 272
TYPE_EXE32_PE = 280

PC_TYPE_MASK = 0x7        # utils/utils.h:338
PC_SUBTYPE_MASK = 0xFFF8  # utils/utils.h:339


def pc_subtype(t: int) -> int:
    return t & PC_SUBTYPE_MASK


_PRIMARY_NAMES = {TYPE_UNKNOWN: "unknown", TYPE_TEXT: "text",
                  TYPE_BINARY: "binary",
                  TYPE_BINARY | TYPE_COMPRESSED: "binary+compressed",
                  TYPE_TEXT | TYPE_COMPRESSED: "text+compressed",
                  TYPE_COMPRESSED: "compressed"}

SUBTYPE_NAMES = {
    0: "", TYPE_EXE32: "exe32", TYPE_JPEG: "jpeg", TYPE_MARKUP: "markup",
    TYPE_COMPRESSED_GZ: "gz", TYPE_COMPRESSED_LZW: "lzw",
    TYPE_COMPRESSED_BZ2: "bz2", TYPE_COMPRESSED_ZIP: "zip",
    TYPE_COMPRESSED_ARJ: "arj", TYPE_COMPRESSED_ARC: "arc",
    TYPE_ARCHIVE_AR: "ar", TYPE_COMPRESSED_LZMA: "lzma",
    TYPE_COMPRESSED_LZO: "lzo", TYPE_AVI: "avi", TYPE_MP4: "mp4",
    TYPE_FLAC: "flac", TYPE_COMPRESSED_RAR: "rar", TYPE_COMPRESSED_LZ: "lz",
    TYPE_COMPRESSED_PPMD: "ppmd", TYPE_COMPRESSED_ZPAQ: "zpaq",
    TYPE_PACKJPG: "packjpg", TYPE_DNA_SEQ: "dna_seq", TYPE_MJPEG: "mjpeg",
    TYPE_AUDIO_COMPRESSED: "audio_compressed", TYPE_EXE64: "exe64",
    TYPE_BMP: "bmp", TYPE_TIFF: "tiff", TYPE_PDF: "pdf",
    TYPE_ARCHIVE_TAR: "tar", TYPE_DICOM: "dicom", TYPE_PNM: "pnm",
    TYPE_PACKPNM: "packpnm", TYPE_WAV: "wav", TYPE_ENGLISH: "english",
    TYPE_MEDIA_BSC: "media_bsc", TYPE_EXE32_PE: "exe32_pe",
}


def type_name(t: int) -> str:
    """Human-readable 'primary/subtype' tag, e.g. 'binary/exe64'."""
    p = _PRIMARY_NAMES.get(t & (PC_TYPE_MASK), "unknown")
    if t & TYPE_COMPRESSED:
        p += "+compressed" if not p.endswith("compressed") else ""
    s = SUBTYPE_NAMES.get(pc_subtype(t), "")
    return f"{p}/{s}" if s else p


def _le16(buf: bytes, off: int) -> int:
    if off + 2 > len(buf):
        return -1
    return buf[off] | (buf[off + 1] << 8)


def _le32(buf: bytes, off: int) -> int:
    if off + 4 > len(buf):
        return -1
    return int.from_bytes(buf[off : off + 4], "little")


def identify_wav_type(buf: bytes) -> bool:
    """utils/utils.c:689-702 — RIFF container with WAVE form type."""
    return len(buf) >= 12 and buf[:4] == b"RIFF" and buf[8:12] == b"WAVE"


def identify_pnm_type(buf: bytes) -> bool:
    """utils/utils.c:656-685 — P4/P5/P6, S4/S5/S6/SM, BM."""
    if len(buf) < 2:
        return False
    a, b = buf[0:1], buf[1:2]
    return ((a == b"P" and b in (b"4", b"5", b"6"))
            or (a == b"S" and b in (b"4", b"5", b"6", b"M"))
            or (a == b"B" and b == b"M"))


def detect_type_by_data(buf: bytes, total_len: int | None = None) -> int:
    """Magic-signature detection mirroring detect_type_by_data
    (archive/pc_archive.c:1918-2070) branch for branch, in the same order
    (order matters: BMP before PNM's 'BM' case, multi-byte magics before
    the one/two-byte MSDOS checks).

    ``total_len``: true payload length when ``buf`` is a sniffing prefix —
    lets the MZ→e_lfanew probe distinguish "PE header beyond the window"
    (→ plain EXE32, stub too large to probe) from "e_lfanew past EOF"
    (→ malformed, falls through exactly like the reference on a full
    buffer)."""
    if len(buf) < 10:
        return TYPE_UNKNOWN

    if len(buf) > 15 and (buf[:16] == b"XPCOM\nMozFASL\r\n\x1a"
                          or buf[:16] == b"XPCOM\nTypeLib\r\n\x1a"):
        return TYPE_BINARY
    if identify_wav_type(buf):
        return TYPE_BINARY | TYPE_WAV
    if buf[:8] == b"!<arch>\n":
        return TYPE_BINARY | TYPE_ARCHIVE_AR
    if buf[257:263] == b"ustar\0" or buf[257:265] == b"ustar\x20\x20\0":
        return TYPE_BINARY | TYPE_ARCHIVE_TAR
    if buf[:5] == b"%PDF-":
        return TYPE_BINARY | TYPE_PDF
    if len(buf) > 127:
        head = buf[:128]
        if b"DICM" in head or b"ISO_IR " in head:
            return TYPE_BINARY | TYPE_DICOM
    if buf[0] == 0xFF and buf[1] == 0xD8 and buf[6:10] in (b"Exif", b"JFIF"):
        return TYPE_BINARY | TYPE_JPEG
    if buf[:4] == b"\x7fELF":
        if len(buf) > 16 and buf[16] != 4:  # not a core dump
            return (TYPE_BINARY | TYPE_EXE64) if buf[4] == 2 \
                else (TYPE_BINARY | TYPE_EXE32)
        return TYPE_BINARY
    if buf[1:2] == b"Z":
        if buf[0:1] == b"L":
            return TYPE_BINARY | TYPE_EXE32
        if buf[0:1] == b"M":
            if _le16(buf, 0x18) != -1 and _le16(buf, 0x18) < 0x40:
                return TYPE_BINARY | TYPE_EXE32
            off = _le32(buf, 0x3C)
            if 0 <= off < len(buf) - 100:
                if buf[off : off + 4] == b"PE\0\0":
                    if _le16(buf, off + 24) in (0x010B, 0x020B):
                        machine = _le16(buf, off + 4)
                        return (TYPE_BINARY | TYPE_EXE64) \
                            if machine == 0x8664 \
                            else (TYPE_BINARY | TYPE_EXE32_PE)
                    return TYPE_BINARY
                return TYPE_BINARY | TYPE_EXE32
            if total_len is not None and 0 <= off < total_len - 100:
                # e_lfanew is valid for the FULL file but lands past the
                # sniffing window: an MZ executable with an oversized DOS
                # stub — PE subtype undetermined, plain EXE32 verdict
                return TYPE_BINARY | TYPE_EXE32
    if buf[:2] == b"BM" and _le16(buf, 14) in (12, 64, 40, 128):
        return TYPE_BINARY | TYPE_BMP
    if buf[:4] == b"TZif":
        return TYPE_BINARY  # timezone data
    if buf[:4] == b"PPMZ":
        return TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_PPMD
    if buf[:4] in (b"wvpk", b"TTA1"):
        return TYPE_BINARY | TYPE_COMPRESSED | TYPE_AUDIO_COMPRESSED
    if identify_pnm_type(buf):
        return TYPE_BINARY | TYPE_PNM
    if buf[0] in (0xE9, 0xEB):
        if _le16(buf, 0x1FE) == 0xAA55:
            return TYPE_BINARY | TYPE_EXE32  # MSDOS COM with boot sig
        return TYPE_BINARY
    leval = _le16(buf, 0)
    if leval in (0o502, 0o503, 0o510, 0o511, 0o512, 0o514, 0o522):
        return TYPE_BINARY | TYPE_EXE32  # x86 COFF objects
    if leval == 0x8664:
        return TYPE_BINARY | TYPE_EXE64  # AMD64 COFF
    if buf[0] == 0x55 and buf[1] == 0xAA:
        return TYPE_BINARY | TYPE_EXE32  # BIOS ROM image
    com = b"\x21\xcd"  # int 21h little-endian, COM_MAGIC
    if any(buf[o : o + 2] == com for o in (2, 4, 5, 13, 18, 23, 30, 70)):
        return TYPE_BINARY | TYPE_EXE32
    return TYPE_UNKNOWN


# formats the reference classifies by EXTENSION only but which carry
# unambiguous magic signatures — payload-only corpora classify too
_EXTRA_MAGICS = (
    (b"\x1f\x8b", TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_GZ),
    (b"\x1f\x9d", TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_LZW),
    (b"BZh", TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_BZ2),
    (b"PK\x03\x04", TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_ZIP),
    (b"Rar!\x1a\x07", TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_RAR),
    (b"\xfd7zXZ\x00", TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_LZMA),
    (b"7z\xbc\xaf\x27\x1c", TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_LZMA),
    (b"\x89LZO\x00\r\n\x1a\n", TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_LZO),
    (b"\x60\xea", TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_ARJ),
    (b"fLaC", TYPE_BINARY | TYPE_FLAC),
    (b"GIF8", TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_LZW),
    (b"II*\x00", TYPE_BINARY | TYPE_TIFF),
    (b"MM\x00*", TYPE_BINARY | TYPE_TIFF),
)


def detect_type_extended(buf: bytes, total_len: int | None = None) -> int:
    """Reference-exact detection first; on UNKNOWN, the extra compressed /
    media magics above plus RIFF-AVI and MP4-ftyp containers."""
    t = detect_type_by_data(buf, total_len=total_len)
    if t != TYPE_UNKNOWN:
        return t
    for magic, typ in _EXTRA_MAGICS:
        if buf[: len(magic)] == magic:
            return typ
    if buf[:4] == b"RIFF" and buf[8:12] == b"AVI ":
        return TYPE_BINARY | TYPE_AVI
    if buf[4:8] == b"ftyp":
        return TYPE_BINARY | TYPE_COMPRESSED | TYPE_MP4
    return TYPE_UNKNOWN
EXT_TYPES = {
    "c": TYPE_TEXT, "h": TYPE_TEXT, "cc": TYPE_TEXT, "cpp": TYPE_TEXT,
    "c++": TYPE_TEXT, "h++": TYPE_TEXT, "hpp": TYPE_TEXT, "hxx": TYPE_TEXT,
    "hh": TYPE_TEXT, "txt": TYPE_TEXT, "text": TYPE_TEXT,
    "html": TYPE_TEXT | TYPE_MARKUP, "htm": TYPE_TEXT | TYPE_MARKUP,
    "xml": TYPE_TEXT | TYPE_MARKUP, "sgml": TYPE_TEXT | TYPE_MARKUP,
    "info": TYPE_TEXT, "svg": TYPE_TEXT, "conf": TYPE_TEXT, "cfg": TYPE_TEXT,
    "py": TYPE_TEXT, "rb": TYPE_TEXT, "ru": TYPE_TEXT, "rbw": TYPE_TEXT,
    "xpm": TYPE_TEXT, "js": TYPE_TEXT, "jsp": TYPE_TEXT, "pl": TYPE_TEXT,
    "t": TYPE_TEXT, "tcl": TYPE_TEXT, "sh": TYPE_TEXT, "ksh": TYPE_TEXT,
    "csh": TYPE_TEXT, "php": TYPE_TEXT, "php3": TYPE_TEXT, "php4": TYPE_TEXT,
    "php5": TYPE_TEXT, "bat": TYPE_TEXT, "pm": TYPE_TEXT, "r": TYPE_TEXT,
    "d": TYPE_TEXT, "bas": TYPE_TEXT, "asm": TYPE_TEXT, "go": TYPE_TEXT,
    "java": TYPE_TEXT, "m4": TYPE_TEXT, "vb": TYPE_TEXT, "vba": TYPE_TEXT,
    "vbs": TYPE_TEXT, "xslt": TYPE_TEXT | TYPE_MARKUP,
    "xsl": TYPE_TEXT | TYPE_MARKUP, "xsd": TYPE_TEXT | TYPE_MARKUP,
    "xs": TYPE_TEXT, "yacc": TYPE_TEXT, "lex": TYPE_TEXT, "csv": TYPE_TEXT,
    "shtml": TYPE_TEXT | TYPE_MARKUP, "xhtml": TYPE_TEXT | TYPE_MARKUP,
    "xht": TYPE_TEXT | TYPE_MARKUP, "tpl": TYPE_TEXT | TYPE_MARKUP,
    "asp": TYPE_TEXT, "aspx": TYPE_TEXT, "rss": TYPE_TEXT | TYPE_MARKUP,
    "atom": TYPE_TEXT | TYPE_MARKUP, "cgi": TYPE_TEXT, "c#": TYPE_TEXT,
    "cob": TYPE_TEXT, "ada": TYPE_TEXT, "ini": TYPE_TEXT, "y": TYPE_TEXT,
    "swg": TYPE_TEXT, "s": TYPE_TEXT, "ps": TYPE_TEXT, "bib": TYPE_TEXT,
    "lua": TYPE_TEXT, "nse": TYPE_TEXT, "dtd": TYPE_TEXT | TYPE_MARKUP,
    "qml": TYPE_TEXT | TYPE_MARKUP, "fa": TYPE_TEXT | TYPE_DNA_SEQ,
    "faa": TYPE_TEXT | TYPE_DNA_SEQ, "asn": TYPE_TEXT | TYPE_MARKUP,
    "ffn": TYPE_TEXT | TYPE_DNA_SEQ, "fna": TYPE_TEXT | TYPE_DNA_SEQ,
    "frn": TYPE_TEXT | TYPE_DNA_SEQ, "gbk": TYPE_TEXT, "gff": TYPE_TEXT,
    "ptt": TYPE_TEXT, "rnt": TYPE_TEXT, "val": TYPE_BINARY, "tcc": TYPE_TEXT,
    "css": TYPE_TEXT, "pod": TYPE_TEXT, "al": TYPE_TEXT, "vim": TYPE_TEXT,
    "am": TYPE_TEXT, "upp": TYPE_TEXT, "mom": TYPE_TEXT, "tmac": TYPE_TEXT,
    "pdf": TYPE_BINARY, "tif": TYPE_BINARY | TYPE_TIFF,
    "tiff": TYPE_BINARY | TYPE_TIFF,
    "jpg": TYPE_BINARY | TYPE_COMPRESSED | TYPE_JPEG,
    "jpeg": TYPE_BINARY | TYPE_COMPRESSED | TYPE_JPEG,
    "mjpeg": TYPE_BINARY | TYPE_COMPRESSED | TYPE_MJPEG,
    "png": TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_GZ,
    "mp3": TYPE_BINARY, "wma": TYPE_BINARY,
    "divx": TYPE_BINARY | TYPE_COMPRESSED, "aac": TYPE_BINARY,
    "m4a": TYPE_BINARY | TYPE_COMPRESSED,
    "m4p": TYPE_BINARY | TYPE_COMPRESSED,
    "ofs": TYPE_BINARY | TYPE_COMPRESSED,
    "ofr": TYPE_BINARY | TYPE_COMPRESSED,
    "ogg": TYPE_BINARY | TYPE_COMPRESSED, "flac": TYPE_BINARY | TYPE_FLAC,
    "avi": TYPE_BINARY | TYPE_AVI, "pac": TYPE_BINARY | TYPE_COMPRESSED,
    "gif": TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_LZW,
    "jp2": TYPE_BINARY | TYPE_COMPRESSED | TYPE_JPEG,
    "pjg": TYPE_BINARY | TYPE_COMPRESSED | TYPE_PACKJPG,
    "gz": TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_GZ,
    "tgz": TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_GZ,
    "zip": TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_ZIP,
    "arj": TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_ARJ,
    "arc": TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_ARC,
    "jar": TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_GZ,
    "lz": TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_LZ,
    "lzh": TYPE_BINARY | TYPE_COMPRESSED,
    "lha": TYPE_BINARY | TYPE_COMPRESSED,
    "lzma": TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_LZMA,
    "lzo": TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_LZO,
    "dmg": TYPE_BINARY,
    "7z": TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_LZMA,
    "uha": TYPE_BINARY | TYPE_COMPRESSED,
    "alz": TYPE_BINARY | TYPE_COMPRESSED,
    "ace": TYPE_BINARY | TYPE_COMPRESSED,
    "rar": TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_RAR,
    "xz": TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_LZMA,
    "txz": TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_LZMA,
    "pmd": TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_PPMD,
    "zpaq": TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_ZPAQ,
    "xcf": TYPE_BINARY, "mo": TYPE_BINARY, "gmo": TYPE_BINARY,
    "pyo": TYPE_BINARY, "pyc": TYPE_BINARY, "wav": TYPE_BINARY | TYPE_WAV,
    "tta": TYPE_BINARY | TYPE_COMPRESSED | TYPE_AUDIO_COMPRESSED,
    "wv": TYPE_BINARY | TYPE_COMPRESSED, "swf": TYPE_BINARY,
    "svgz": TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_GZ,
    "odt": TYPE_BINARY | TYPE_COMPRESSED | TYPE_COMPRESSED_ZIP,
    "3dm": TYPE_BINARY, "chm": TYPE_BINARY, "CHM": TYPE_BINARY,
    "svn": TYPE_BINARY, "ppm": TYPE_BINARY | TYPE_PNM,
    "pbm": TYPE_BINARY | TYPE_PNM, "pgm": TYPE_BINARY | TYPE_PNM,
    "pnm": TYPE_BINARY | TYPE_PNM,
    "ppn": TYPE_BINARY | TYPE_COMPRESSED | TYPE_PACKPNM, "mk": TYPE_TEXT,
    "diff": TYPE_TEXT, "po": TYPE_TEXT, "pot": TYPE_TEXT, "in": TYPE_TEXT,
    "ac": TYPE_TEXT, "guess": TYPE_TEXT, "sub": TYPE_TEXT,
    "rpath": TYPE_TEXT, "texi": TYPE_TEXT, "valgrind": TYPE_TEXT,
    "gperf": TYPE_TEXT, "latex": TYPE_TEXT, "f77": TYPE_TEXT,
    "f90": TYPE_TEXT, "f95": TYPE_TEXT, "groovy": TYPE_TEXT,
    "ebuild": TYPE_TEXT, "rex": TYPE_TEXT, "rexx": TYPE_TEXT,
    "scala": TYPE_TEXT, "xaml": TYPE_TEXT | TYPE_MARKUP,
    "yaml": TYPE_TEXT | TYPE_MARKUP, "tex": TYPE_TEXT, "rebol": TYPE_TEXT,
    "reb": TYPE_TEXT, "perl": TYPE_TEXT, "pas": TYPE_TEXT, "p6": TYPE_TEXT,
    "z80": TYPE_TEXT, "scm": TYPE_TEXT, "ss": TYPE_TEXT, "ml": TYPE_TEXT,
    "ml4": TYPE_TEXT, "mli": TYPE_TEXT, "mm": TYPE_TEXT, "m3": TYPE_TEXT,
    "lisp": TYPE_TEXT, "kdebuild-1": TYPE_TEXT, "hs": TYPE_TEXT,
    "gemspec": TYPE_TEXT, "fs": TYPE_TEXT, "coffee": TYPE_TEXT,
    "e": TYPE_TEXT, "cu": TYPE_TEXT, "awk": TYPE_TEXT, "xls": TYPE_BINARY,
    "xlw": TYPE_BINARY, "qt": TYPE_BINARY, "charset": TYPE_TEXT,
    "sed": TYPE_TEXT, "mailmap": TYPE_TEXT, "sin": TYPE_BINARY,
    "xul": TYPE_TEXT, "xpt": TYPE_BINARY,
}


def detect_type_by_ext(path: str) -> int:
    """Extension lookup (utils/phash/extensions.h table, pc_archive.c:
    1837-1871 dispatch): the extension is the suffix after the last '.'."""
    dot = path.rfind(".")
    if dot < 0 or dot == len(path) - 1:
        return TYPE_UNKNOWN
    return EXT_TYPES.get(path[dot + 1 :].lower(), TYPE_UNKNOWN)


def detect_types_batch(t: pa.Table, payload_col: str = "payload",
                       path_col: str | None = None) -> pa.Table:
    """Append ftype:int32 + ftype_name:string. Extension (when a path
    column exists and matches) takes precedence like the reference's
    archiver (pc_archive.c:1325: ext hit skips data detection), data
    magics otherwise."""
    import pyarrow.compute as pc

    t = t.replace_schema_metadata(None)
    paths = t[path_col].to_pylist() if path_col else [None] * len(t)
    types = np.empty(len(t), dtype=np.int32)
    # bounded prefix only — never copy multi-MB payloads onto the Python
    # heap for sniffing. 64 KiB covers every magic check: tar needs 265,
    # boot sig 512, and the deepest probe is MZ→e_lfanew→'PE\0\0'; an
    # e_lfanew past the window (oversized DOS stub) degrades to the
    # plain-MZ EXE32 verdict via total_len instead of falling through
    col = t[payload_col].combine_chunks()
    total_lens = pc.fill_null(pc.binary_length(col), 0) \
        .to_numpy(zero_copy_only=False)
    prefixes = pc.binary_slice(col, 0, 65536).to_pylist()
    for i, (p, payload) in enumerate(zip(paths, prefixes)):
        ft = detect_type_by_ext(p) if p else TYPE_UNKNOWN
        if ft == TYPE_UNKNOWN:
            ft = detect_type_extended(payload or b"",
                                      total_len=int(total_lens[i]))
        types[i] = ft
    names = pa.array([type_name(int(x)) for x in types], pa.string())
    return t.append_column("ftype", pa.array(types, pa.int32())) \
            .append_column("ftype_name", names)


def _pe32_exe() -> bytes:
    """Minimal MZ+PE header reaching the EXE32_PE branch (reloc table at
    ≥0x40, e_lfanew → 'PE\\0\\0', optional-header magic 0x010b)."""
    buf = bytearray(232)
    buf[0:2] = b"MZ"
    buf[0x18:0x1A] = (0x40).to_bytes(2, "little")   # reloc offset ≥ 0x40
    buf[0x3C:0x40] = (0x80).to_bytes(4, "little")   # e_lfanew
    buf[0x80:0x84] = b"PE\0\0"
    buf[0x84:0x86] = (0x014C).to_bytes(2, "little")  # machine i386
    buf[0x98:0x9A] = (0x010B).to_bytes(2, "little")  # PE32 magic at +24
    return bytes(buf)


def _pe64_exe() -> bytes:
    buf = bytearray(_pe32_exe())
    buf[0x84:0x86] = (0x8664).to_bytes(2, "little")  # machine amd64
    return bytes(buf)


def make_fake_file_table(repeats: int = 1, seed: int = 23) -> pa.Table:
    """Deterministic corpus covering the taxonomy: one genuinely-formed
    payload (or typed path) per detectable kind, cycled ``repeats`` times.
    Magic-detected rows get extension-less paths so detection exercises
    the data branches; ext-only kinds (zpaq/mjpeg/packjpg/dna/markup/text)
    get the reference's extensions with opaque payloads."""
    import bz2 as _bz2
    import gzip as _gzip
    import io
    import lzma as _lzma
    import tarfile
    import zipfile

    rng = np.random.default_rng(seed)
    junk = rng.integers(0, 256, 600, dtype=np.uint8).tobytes()

    zbuf = io.BytesIO()
    with zipfile.ZipFile(zbuf, "w") as zf:
        zf.writestr("a.txt", "hello zip")
    tbuf = io.BytesIO()
    with tarfile.open(fileobj=tbuf, mode="w") as tf:
        ti = tarfile.TarInfo("a.txt")
        ti.size = 5
        tf.addfile(ti, io.BytesIO(b"hello"))
    elf32 = b"\x7fELF\x01\x01\x01" + b"\0" * 9 + b"\x02\x00" + junk[:32]
    elf64 = b"\x7fELF\x02\x01\x01" + b"\0" * 9 + b"\x02\x00" + junk[:32]
    com = bytearray(b"\xe9" + junk[:0x1FF])
    com[0x1FE:0x200] = b"\x55\xaa"
    dicom = b"\0" * 64 + b"DICM" + junk[:128]
    wav = b"RIFF" + (36).to_bytes(4, "little") + b"WAVE" + junk[:64]
    avi = b"RIFF" + (600).to_bytes(4, "little") + b"AVI " + junk[:64]
    mp4 = (24).to_bytes(4, "big") + b"ftypisom" + junk[:64]
    jfif = b"\xff\xd8\xff\xe0\x00\x10JFIF\x00\x01" + junk[:32]

    kinds = [
        # (label, path, payload) — label is the EXPECTED ftype_name
        ("binary+compressed/gz", "blob", _gzip.compress(b"hello" * 30)),
        ("binary+compressed/bz2", "blob", _bz2.compress(b"hello" * 30)),
        ("binary+compressed/zip", "blob", zbuf.getvalue()),
        ("binary+compressed/lzma", "blob", _lzma.compress(b"hello" * 30)),
        ("binary+compressed/lzw", "blob", b"\x1f\x9d" + junk[:40]),
        ("binary+compressed/arj", "blob", b"\x60\xea" + junk[:40]),
        ("binary+compressed/rar", "blob", b"Rar!\x1a\x07\x00" + junk[:40]),
        ("binary+compressed/lzo", "blob", b"\x89LZO\x00\r\n\x1a\n" + junk[:40]),
        ("binary+compressed/ppmd", "blob", b"PPMZ" + junk[:40]),
        ("binary+compressed/audio_compressed", "blob", b"wvpk" + junk[:40]),
        ("binary/ar", "blob", b"!<arch>\n" + junk[:40]),
        ("binary/tar", "blob", tbuf.getvalue()),
        ("binary/pdf", "blob", b"%PDF-1.7\n" + junk[:40]),
        ("binary/dicom", "blob", dicom),
        ("binary/jpeg", "blob", jfif),
        ("binary/exe32", "blob", elf32),
        ("binary/exe64", "blob", elf64),
        ("binary/exe32_pe", "blob", _pe32_exe()),
        ("binary/exe64", "blob", _pe64_exe()),
        ("binary/exe32", "blob", bytes(com)),
        ("binary/bmp", "blob",
         b"BM" + junk[:12] + (40).to_bytes(2, "little") + junk[:40]),
        ("binary/tiff", "blob", b"II*\x00" + junk[:40]),
        ("binary/pnm", "blob", b"P6\n4 4\n255\n" + junk[:48]),
        ("binary/wav", "blob", wav),
        ("binary/avi", "blob", avi),
        ("binary+compressed/mp4", "blob", mp4),
        ("binary/flac", "blob", b"fLaC" + junk[:40]),
        ("binary+compressed/lzw", "blob", b"GIF89a" + junk[:40]),
        # extension-classified kinds (opaque payloads)
        # "LZIP" magic collides with the reference's MSDOS 'LZ' exe
        # check (pc_archive.c:1980) — lzip is ext-classified, like there
        ("binary+compressed/lz", "backup.lz", junk[:64]),
        ("binary+compressed/zpaq", "backup.zpaq", junk[:64]),
        ("binary+compressed/mjpeg", "clip.mjpeg", junk[:64]),
        ("binary+compressed/packjpg", "img.pjg", junk[:64]),
        ("text/dna_seq", "genome.fa", b"ACGTACGT" * 16),
        ("text/markup", "page.html", b"<html><body>x</body></html>"),
        ("text", "notes.txt", b"plain text " * 12),
    ]
    labels, paths, payloads = [], [], []
    fid = 0
    for _ in range(repeats):
        for lab, path, payload in kinds:
            labels.append(lab)
            paths.append(f"{path}_{fid:05d}" if path == "blob" else path)
            payloads.append(payload)
            fid += 1
    return pa.table({
        "file_id": pa.array(np.arange(len(labels), dtype=np.int64)),
        "path": pa.array(paths, pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "expected": pa.array(labels, pa.string()),
    })
