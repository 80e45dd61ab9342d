import pytest

from rhetseg.corpus import Corpus, Document
from rhetseg.errors import DataError
from rhetseg.instructions import INSTRUCTION_TEMPLATES, instruction_records
from rhetseg.roles import RhetoricalRole
from rhetseg.synth import generate_corpus


def test_sixteen_distinct_templates_with_shared_glossary():
    assert len(INSTRUCTION_TEMPLATES) == 16
    assert len(set(INSTRUCTION_TEMPLATES)) == 16
    for t in INSTRUCTION_TEMPLATES:
        assert t.endswith(
            "None-0, Facts-1, Issue-2, Arguments of Petitioner-3, "
            "Arguments of Respondent-4, Reasoning-5, Decision-6."
        )


def test_first_template_verbatim():
    assert INSTRUCTION_TEMPLATES[0] == (
        "Analyze the given legal sentence and predict its rhetorical role as a "
        "number: None-0, Facts-1, Issue-2, Arguments of Petitioner-3, "
        "Arguments of Respondent-4, Reasoning-5, Decision-6."
    )


def test_records_cycle_across_document_boundaries():
    corpus = generate_corpus(3, 10, 14, seed=0)
    records = instruction_records(corpus)
    sentences = [(text, label) for d in corpus for text, label in zip(d.texts, d.labels)]
    assert len(records) == len(sentences)
    for j, (rec, (text, label)) in enumerate(zip(records, sentences)):
        assert rec["instruction"] == INSTRUCTION_TEMPLATES[j % 16]
        assert rec["input"] == text
        assert rec["output"] == str(int(label))


def test_output_is_stringified_id():
    doc = Document(doc_id="d", texts=("The appeal is allowed.",), labels=(RhetoricalRole.DECISION,))
    rec = instruction_records(Corpus(documents=(doc,)))[0]
    assert rec["output"] == "6"


def test_unlabeled_sentence_rejected():
    doc = Document(doc_id="d", texts=("x",), labels=(None,))
    with pytest.raises(DataError, match="'d'.*sentence 0"):
        instruction_records(Corpus(documents=(doc,)))


def test_template_cycling_counts_are_even():
    corpus = generate_corpus(8, 8, 8, seed=1)  # 64 sentences -> 4 full cycles
    records = instruction_records(corpus)
    counts = {}
    for rec in records:
        counts[rec["instruction"]] = counts.get(rec["instruction"], 0) + 1
    assert set(counts.values()) == {4}
