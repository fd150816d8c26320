"""URL canonicalization — the web-corpus dedup key normalizer.

Common-Crawl-style pipelines dedup by canonical URL before any content
pass (cheapest dedup tier: one string kernel + one exact shuffle, no
signatures). This stage normalizes absolute http(s) URLs with a fixed,
SQL-expressible rule sequence so the DuckDB oracle can mirror it exactly:

  1. strip the fragment            (``#.*$`` → '')
  2. lowercase scheme and host     (split at '://' then first '/')
  3. drop the default port         (http ':80', https ':443')
  4. drop utm_* query params       (``[?&]utm_[a-z0-9_]*=[^&]*`` → '',
                                    then repair a dangling leading '&'
                                    into '?': ``^([^?]*)&`` → ``\\1?``)
  5. strip trailing slashes        (``/+$`` → '' on path+query)

All steps are vectorized pandas ``.str`` ops (compiled regex under the
hood, no per-row Python). The rule order matters and is part of the spec:
utm removal runs before trailing-slash strip so '/a/?utm_x=1' → '/a'.

This operator has no analog in the reference (pcompress dedups content
bytes, not keys); it is part of the LLM-training-data tier the engine adds
(RefinedWeb/CCNet practice: URL-level exact dedup precedes MinHash).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_UTM_RE = r"[?&]utm_[a-z0-9_]*=[^&]*"


def canonicalize_urls(urls: pd.Series) -> pd.Series:
    """Vectorized canonicalization of a string Series of absolute URLs."""
    # fragment strip: [\s\S]* not '.*$' — identical semantics in Python
    # re and RE2 even when the url carries newlines ('.' skips '\n' and
    # the two engines disagree on '$' before a trailing '\n')
    u = urls.fillna("").str.replace(r"#[\s\S]*", "", regex=True)
    # split scheme://host/path?query at the FIRST '/' after '://'
    scheme = u.str.split("://", n=1).str[0].str.lower()
    rest = u.str.split("://", n=1).str[1].fillna("")
    host = rest.str.split("/", n=1).str[0].str.lower()
    pq = rest.str.replace(r"^[^/]*", "", regex=True)  # '' or starts with '/'
    # default ports (scheme-aware)
    host = host.mask((scheme == "http") & host.str.endswith(":80"),
                     host.str.replace(r":80$", "", regex=True))
    host = host.mask((scheme == "https") & host.str.endswith(":443"),
                     host.str.replace(r":443$", "", regex=True))
    # utm params; if the '?' was consumed, promote the first '&' to '?' —
    # but ONLY when no '?' survives anywhere, else a degenerate
    # '...&...?' input gains a second '?' per pass and canonicalization
    # isn't idempotent (hypothesis-found). The guard is an explicit
    # contains check, NOT a '$'-anchored regex: Python re '$' matches
    # before a trailing newline while RE2's does not, which would desync
    # the DuckDB twin on '\n'-bearing urls.
    pq = pq.str.replace(_UTM_RE, "", regex=True)
    promoted = pq.str.replace(r"^([^&]*)&", r"\1?", n=1, regex=True)
    # '\Z' = absolute end in Python re, matching RE2's default '$'
    pq = promoted.where(~pq.str.contains("?", regex=False), pq) \
                 .str.replace(r"/+\Z", "", regex=True)
    return scheme + "://" + host + pq


def synthesize_messy_urls(doc_id: np.ndarray) -> pd.Series:
    """Deterministic messy-URL synthesis from doc_id (test harness only —
    the sf documents table carries no url column).

    The CANONICAL identity depends only on ``g = doc_id % 50`` (scheme,
    host, path, real query); the mess — case, default ports, utm params,
    fragments, trailing slashes — depends on residues of doc_id itself, so
    docs sharing g are exact URL-duplicates after canonicalization. The
    DuckDB oracle rebuilds the identical strings with CASE arithmetic.
    """
    d = np.asarray(doc_id, dtype=np.int64)
    g = d % 50

    def s(x) -> pd.Series:  # int array → string Series (elementwise concat)
        return pd.Series(x).astype(str)

    gs, ds = s(g % 7), s(d % 5)
    scheme = pd.Series(np.where(g % 2 == 0, "http", "https"))
    scheme = scheme.mask(pd.Series(d % 3 == 0), scheme.str.upper())
    host = "site" + s(g % 5) + ".example.com"
    host = host.mask(pd.Series(d % 4 == 0), host.str.upper())
    port = pd.Series(np.where(d % 5 == 0,
                              np.where(g % 2 == 0, ":80", ":443"), ""))
    path = "/dir/item" + s(g)
    has_q = g % 3 == 1
    slash = pd.Series(np.where((d % 4 == 1) & ~has_q, "/", ""))
    query = ("?q=" + gs).mask(pd.Series(~has_q), "")
    m6 = d % 6
    # utm mess: appended after real params (m6==1), prefixed before them
    # (m6==2), or appended as the only params (m6==1, no real query)
    qfull = query \
        .mask(pd.Series(has_q & (m6 == 1)), query + "&utm_campaign=c") \
        .mask(pd.Series(has_q & (m6 == 2)), "?utm_x=1&q=" + gs) \
        .mask(pd.Series(~has_q & (m6 == 1)), "?utm_source=a&utm_medium=b")
    frag = ("#frag" + ds).mask(pd.Series(d % 2 != 0), "")
    return scheme + "://" + host + port + path + slash + qfull + frag


def synthesize_messy_urls_sql(doc_id_expr: str = "doc_id") -> str:
    """DuckDB expression building the SAME messy URL from a doc_id column."""
    d = doc_id_expr
    return f"""(
        CASE WHEN {d} % 3 = 0
             THEN upper(CASE WHEN ({d} % 50) % 2 = 0 THEN 'http' ELSE 'https' END)
             ELSE CASE WHEN ({d} % 50) % 2 = 0 THEN 'http' ELSE 'https' END END
        || '://'
        || CASE WHEN {d} % 4 = 0
                THEN upper('site' || (({d} % 50) % 5)::VARCHAR || '.example.com')
                ELSE 'site' || (({d} % 50) % 5)::VARCHAR || '.example.com' END
        || CASE WHEN {d} % 5 = 0
                THEN CASE WHEN ({d} % 50) % 2 = 0 THEN ':80' ELSE ':443' END
                ELSE '' END
        || '/dir/item' || ({d} % 50)::VARCHAR
        || CASE WHEN {d} % 4 = 1 AND ({d} % 50) % 3 != 1 THEN '/' ELSE '' END
        || CASE
             WHEN ({d} % 50) % 3 = 1 AND {d} % 6 = 1
               THEN '?q=' || (({d} % 50) % 7)::VARCHAR || '&utm_campaign=c'
             WHEN ({d} % 50) % 3 = 1 AND {d} % 6 = 2
               THEN '?utm_x=1&q=' || (({d} % 50) % 7)::VARCHAR
             WHEN ({d} % 50) % 3 = 1
               THEN '?q=' || (({d} % 50) % 7)::VARCHAR
             WHEN {d} % 6 = 1
               THEN '?utm_source=a&utm_medium=b'
             ELSE '' END
        || CASE WHEN {d} % 2 = 0 THEN '#frag' || ({d} % 5)::VARCHAR ELSE '' END
    )"""


def canonicalize_sql(url_expr: str) -> str:
    """DuckDB expression mirroring ``canonicalize_urls`` exactly —
    including on newline-bearing urls: fragment strip is '#[\\s\\S]*'
    (engine-agnostic), the '&'->'?' promotion is guarded by an explicit
    no-'?' check (contains / strpos, not a '$' anchor), and RE2's
    default '$' is absolute-end like the pandas side's '\\Z'."""
    u1 = f"regexp_replace({url_expr}, '#[\\s\\S]*', '')"
    scheme = f"lower(split_part({u1}, '://', 1))"
    # FIRST-occurrence split, not split_part(..., 2): DuckDB split_part
    # cuts at every delimiter, so a degenerate 'http://://?' would yield
    # '' where pandas split('://', n=1) yields '://?' (hypothesis-found)
    rest = (f"CASE WHEN strpos({u1}, '://') = 0 THEN '' "
            f"ELSE substr({u1}, strpos({u1}, '://') + 3) END")
    host0 = f"lower(split_part({rest}, '/', 1))"
    pq0 = f"regexp_replace({rest}, '^[^/]*', '')"
    host = f"""CASE
        WHEN {scheme} = 'http'  AND {host0} LIKE '%:80'
            THEN regexp_replace({host0}, ':80$', '')
        WHEN {scheme} = 'https' AND {host0} LIKE '%:443'
            THEN regexp_replace({host0}, ':443$', '')
        ELSE {host0} END"""
    pq_utm = f"regexp_replace({pq0}, '{_UTM_RE}', '', 'g')"
    pq_promoted = (f"CASE WHEN strpos({pq_utm}, '?') = 0 "
                   f"THEN regexp_replace({pq_utm}, '^([^&]*)&', '\\1?') "
                   f"ELSE {pq_utm} END")
    pq = f"regexp_replace({pq_promoted}, '/+$', '')"
    return f"({scheme} || '://' || {host} || {pq})"


def surt_keys(canon_urls: pd.Series) -> pd.Series:
    """SURT (Sort-friendly URI Reordering Transform) key of CANONICAL
    urls — the Common Crawl / OpenWayback CDX index key: scheme dropped,
    host labels reversed and comma-joined, ')' then path+query, so one
    lexicographic sort clusters every capture of a host/path subtree.
    Vectorized pandas str ops end to end (list-slice reverse)."""
    rest = canon_urls.str.split("://", n=1).str[1].fillna("")
    host = rest.str.split("/", n=1).str[0]
    pq = rest.str.replace(r"^[^/]*", "", regex=True)
    rev = host.str.split(".").str[::-1].str.join(",")
    return rev + ")" + pq


def surt_sql(canon_expr: str) -> str:
    """DuckDB twin of surt_keys over a canonical-url SQL expression."""
    return (
        f"(array_to_string(list_reverse(string_split("
        f"regexp_extract({canon_expr}, '://([^/]*)', 1), '.')), ',')"
        f" || ')' || regexp_replace({canon_expr}, '^[a-z]+://[^/]*', ''))")
