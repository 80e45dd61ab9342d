"""Instruction-tuning record export: 16 fixed templates cycled per sentence.

Template k (0-based) goes to the sentence with global index j where
j mod 16 == k, counting sentences across the corpus in document order. Each
record is {"instruction", "input", "output"} with the label id as a string.
"""

from __future__ import annotations

from .corpus import Corpus
from .errors import DataError

_GLOSSARY = (
    "None-0, Facts-1, Issue-2, Arguments of Petitioner-3, "
    "Arguments of Respondent-4, Reasoning-5, Decision-6."
)

INSTRUCTION_TEMPLATES: tuple[str, ...] = (
    "Analyze the given legal sentence and predict its rhetorical role as a number: " + _GLOSSARY,
    "Determine the rhetorical function of this sentence from a court case and provide its corresponding number: " + _GLOSSARY,
    "Based on the content of the following legal text, classify its rhetorical role by selecting the appropriate number: " + _GLOSSARY,
    "Identify the rhetorical category of this legal statement and provide the number that represents it: " + _GLOSSARY,
    "Evaluate the rhetorical purpose of the provided legal sentence and label it with the correct number: " + _GLOSSARY,
    "Assign a number to the rhetorical role of this sentence from a legal case, choosing from: " + _GLOSSARY,
    "Review the legal statement and predict its rhetorical function using the corresponding number: " + _GLOSSARY,
    "Examine this legal text and determine its rhetorical role by outputting the appropriate number: " + _GLOSSARY,
    "Categorize the rhetorical purpose of the following sentence from a court proceeding with a number: " + _GLOSSARY,
    "Analyze the provided legal sentence and classify it into its rhetorical role, outputting only the number: " + _GLOSSARY,
    "Determine the appropriate number for the rhetorical category of this legal text: " + _GLOSSARY,
    "Assign a numerical label to the rhetorical role of this statement in a legal case: " + _GLOSSARY,
    "Predict the number that corresponds to the rhetorical function of the following legal sentence: " + _GLOSSARY,
    "Identify the number that represents the rhetorical role of this legal text: " + _GLOSSARY,
    "Analyze this legal statement and assign the number that best matches its rhetorical function: " + _GLOSSARY,
    "Classify the following sentence from a court case by selecting its rhetorical role number: " + _GLOSSARY,
)


def instruction_records(corpus: Corpus) -> list[dict]:
    records = []
    counter = 0
    for doc in corpus:
        for j, (text, label) in enumerate(zip(doc.texts, doc.labels)):
            if label is None:
                raise DataError(
                    f"document {doc.doc_id!r}: sentence {j} has no gold label"
                )
            records.append(
                {
                    "instruction": INSTRUCTION_TEMPLATES[counter % len(INSTRUCTION_TEMPLATES)],
                    "input": text,
                    "output": str(int(label)),
                }
            )
            counter += 1
    return records
